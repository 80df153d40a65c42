#include "src/common/subspace.h"

#include <bit>
#include <cassert>

namespace hos {

Subspace Subspace::FromDims(const std::vector<int>& dims) {
  uint64_t mask = 0;
  for (int d : dims) {
    assert(d >= 0 && d < kMaxDims);
    mask |= uint64_t{1} << d;
  }
  return Subspace(mask);
}

Subspace Subspace::FromOneBased(const std::vector<int>& dims) {
  uint64_t mask = 0;
  for (int d : dims) {
    assert(d >= 1 && d <= kMaxDims);
    mask |= uint64_t{1} << (d - 1);
  }
  return Subspace(mask);
}

std::vector<int> Subspace::Dims() const {
  std::vector<int> out;
  out.reserve(Dimensionality());
  uint64_t m = mask_;
  while (m != 0) {
    int bit = std::countr_zero(m);
    out.push_back(bit);
    m &= m - 1;
  }
  return out;
}

std::string Subspace::ToString() const {
  std::string out = "[";
  bool first = true;
  for (int dim : Dims()) {
    if (!first) out += ",";
    out += std::to_string(dim + 1);
    first = false;
  }
  out += "]";
  return out;
}

std::vector<Subspace> AllSubspaces(int d) {
  assert(d >= 1 && d <= 24);
  std::vector<Subspace> out;
  const uint64_t limit = uint64_t{1} << d;
  out.reserve(limit - 1);
  for (uint64_t mask = 1; mask < limit; ++mask) {
    out.push_back(Subspace(mask));
  }
  return out;
}

std::vector<Subspace> ImmediateSubsets(const Subspace& s) {
  std::vector<Subspace> out;
  for (int dim : s.Dims()) {
    Subspace child = s.Without(dim);
    if (!child.Empty()) out.push_back(child);
  }
  return out;
}

std::vector<Subspace> ImmediateSupersets(const Subspace& s, int d) {
  std::vector<Subspace> out;
  for (int dim = 0; dim < d; ++dim) {
    if (!s.Contains(dim)) out.push_back(s.With(dim));
  }
  return out;
}

}  // namespace hos
