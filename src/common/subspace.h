// Subspace: an axis-parallel subspace of R^d represented as a dimension
// bitmask. Dimension indices are 0-based internally; ToString() prints the
// paper's 1-based bracket notation, e.g. "[1,3]".

#ifndef HOS_COMMON_SUBSPACE_H_
#define HOS_COMMON_SUBSPACE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace hos {

/// Maximum number of dimensions representable in a subspace mask.
inline constexpr int kMaxDims = 62;

/// Value type wrapping a dimension bitmask. Bit i set means dimension i
/// participates in the subspace.
class Subspace {
 public:
  /// Empty subspace.
  constexpr Subspace() : mask_(0) {}

  /// From raw bitmask.
  explicit constexpr Subspace(uint64_t mask) : mask_(mask) {}

  /// From a list of 0-based dimension indices.
  static Subspace FromDims(const std::vector<int>& dims);

  /// From the paper's 1-based notation, e.g. FromOneBased({1,3}) == bits 0,2.
  static Subspace FromOneBased(const std::vector<int>& dims);

  /// The full d-dimensional space (all of the first d bits set).
  static constexpr Subspace Full(int d) {
    return Subspace(d >= 64 ? ~uint64_t{0} : (uint64_t{1} << d) - 1);
  }

  uint64_t mask() const { return mask_; }

  /// Number of participating dimensions.
  int Dimensionality() const { return std::popcount(mask_); }

  bool Empty() const { return mask_ == 0; }

  bool Contains(int dim) const { return (mask_ >> dim) & 1; }

  /// True if this subspace is a (non-strict) subset of `other`.
  bool IsSubsetOf(const Subspace& other) const {
    return (mask_ & other.mask_) == mask_;
  }

  /// True if this subspace is a (non-strict) superset of `other`.
  bool IsSupersetOf(const Subspace& other) const {
    return other.IsSubsetOf(*this);
  }

  bool IsProperSubsetOf(const Subspace& other) const {
    return IsSubsetOf(other) && mask_ != other.mask_;
  }
  bool IsProperSupersetOf(const Subspace& other) const {
    return IsSupersetOf(other) && mask_ != other.mask_;
  }

  /// Set-union / intersection / difference.
  Subspace Union(const Subspace& other) const {
    return Subspace(mask_ | other.mask_);
  }
  Subspace Intersect(const Subspace& other) const {
    return Subspace(mask_ & other.mask_);
  }
  Subspace Minus(const Subspace& other) const {
    return Subspace(mask_ & ~other.mask_);
  }

  /// Adds / removes a 0-based dimension.
  Subspace With(int dim) const { return Subspace(mask_ | (uint64_t{1} << dim)); }
  Subspace Without(int dim) const {
    return Subspace(mask_ & ~(uint64_t{1} << dim));
  }

  /// Participating dimensions as ascending 0-based indices.
  std::vector<int> Dims() const;

  /// Paper notation: 1-based, ascending, e.g. "[1,3]". Empty prints "[]".
  std::string ToString() const;

  bool operator==(const Subspace& other) const = default;
  bool operator<(const Subspace& other) const { return mask_ < other.mask_; }

 private:
  uint64_t mask_;
};

/// All non-empty subspaces of a d-dimensional space (2^d - 1 of them),
/// ascending by mask. Only sensible for small d; asserts d <= 24.
std::vector<Subspace> AllSubspaces(int d);

/// All immediate children (subsets with one fewer dimension).
std::vector<Subspace> ImmediateSubsets(const Subspace& s);

/// All immediate parents within a d-dimensional space.
std::vector<Subspace> ImmediateSupersets(const Subspace& s, int d);

}  // namespace hos

#endif  // HOS_COMMON_SUBSPACE_H_
