#include "src/lattice/dense_lattice_store.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "src/common/combinatorics.h"

namespace hos::lattice {
namespace {

// A bitset over the 2^d masks holds mask x at bit (x & 63) of word x >> 6,
// so dimensions 0-5 index bits inside a word and dimensions 6+ index words.
// kBitClear[i] selects the in-word positions whose dimension-i bit is 0.
constexpr uint64_t kBitClear[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};

/// Zeroes `bits` and sets the bit of every mask in `seeds`.
void SeedBits(std::vector<uint64_t>& bits, const std::vector<uint64_t>& seeds) {
  std::fill(bits.begin(), bits.end(), 0);
  for (uint64_t seed : seeds) bits[seed >> 6] |= uint64_t{1} << (seed & 63);
}

/// Up-closure in place: afterwards mask x is set iff some initially set mask
/// is a subset of x. One OR round per dimension.
void CloseUpward(std::vector<uint64_t>& bits, int d) {
  for (int i = 0; i < std::min(d, 6); ++i) {
    const int shift = 1 << i;
    for (uint64_t& w : bits) w |= (w & kBitClear[i]) << shift;
  }
  for (int i = 6; i < d; ++i) {
    const size_t stride = size_t{1} << (i - 6);
    for (size_t base = 0; base < bits.size(); base += 2 * stride) {
      for (size_t j = base; j < base + stride; ++j) bits[j + stride] |= bits[j];
    }
  }
}

/// Down-closure in place: afterwards mask x is set iff x is a subset of
/// some initially set mask.
void CloseDownward(std::vector<uint64_t>& bits, int d) {
  for (int i = 0; i < std::min(d, 6); ++i) {
    const int shift = 1 << i;
    for (uint64_t& w : bits) w |= (w >> shift) & kBitClear[i];
  }
  for (int i = 6; i < d; ++i) {
    const size_t stride = size_t{1} << (i - 6);
    for (size_t base = 0; base < bits.size(); base += 2 * stride) {
      for (size_t j = base; j < base + stride; ++j) bits[j] |= bits[j + stride];
    }
  }
}

bool TestBit(const std::vector<uint64_t>& bits, uint64_t mask) {
  return (bits[mask >> 6] >> (mask & 63)) & 1;
}

}  // namespace

DenseLatticeStore::DenseLatticeStore(int num_dims) : LatticeStore(num_dims) {
  assert(num_dims >= 1 && num_dims <= kDenseMaxDims);
  const uint64_t size = uint64_t{1} << num_dims;
  state_.assign(size, 0);
  undecided_.resize(num_dims + 1);
  for (int m = 1; m <= num_dims; ++m) {
    undecided_[m].reserve(Binomial(num_dims, m));
  }
  // Ascending masks land in each level vector in ascending order.
  for (uint64_t mask = 1; mask < size; ++mask) {
    undecided_[std::popcount(mask)].push_back(mask);
  }
  for (int m = 1; m <= num_dims; ++m) {
    undecided_count_[m] = undecided_[m].size();
  }
  const size_t words = std::max<uint64_t>(size >> 6, 1);
  up_closure_.resize(words);
  down_closure_.resize(words);
}

void DenseLatticeStore::Propagate() {
  const bool up = !pending_outlier_seeds_.empty();
  const bool down = !pending_non_outlier_seeds_.empty();
  if (!up && !down) return;
  // Closures of the pending seeds only: everything covered by an earlier
  // seed was decided by an earlier Propagate. The seeds themselves are in
  // their closures but are already evaluated, so the pass skips them.
  if (up) {
    SeedBits(up_closure_, pending_outlier_seeds_);
    CloseUpward(up_closure_, num_dims_);
  }
  if (down) {
    SeedBits(down_closure_, pending_non_outlier_seeds_);
    CloseDownward(down_closure_, num_dims_);
  }
  for (int m = 1; m <= num_dims_; ++m) {
    auto& masks = undecided_[m];
    size_t write = 0;
    for (size_t read = 0; read < masks.size(); ++read) {
      const uint64_t mask = masks[read];
      if (state_[mask] != 0) continue;  // decided elsewhere; drop lazily
      // Upward pruning wins when a mask is in both closures (possible only
      // for a non-monotone verdict sequence).
      if (up && TestBit(up_closure_, mask)) {
        state_[mask] = static_cast<uint8_t>(SubspaceState::kInferredOutlier);
        ++inferred_outliers_[m];
        --undecided_count_[m];
      } else if (down && TestBit(down_closure_, mask)) {
        state_[mask] =
            static_cast<uint8_t>(SubspaceState::kInferredNonOutlier);
        ++inferred_non_outliers_[m];
        --undecided_count_[m];
      } else {
        masks[write++] = mask;
      }
    }
    masks.resize(write);
  }
  pending_outlier_seeds_.clear();
  pending_non_outlier_seeds_.clear();
}

void DenseLatticeStore::ForEachUndecided(
    int m, const std::function<void(uint64_t)>& fn) const {
  // The stored vector is compacted only in Propagate, so it may still carry
  // masks evaluated since; filter on the fly without mutating (const).
  for (uint64_t mask : undecided_[m]) {
    if (state_[mask] == 0) fn(mask);
  }
}

}  // namespace hos::lattice
