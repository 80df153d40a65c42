#include "src/lattice/dense_lattice_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "src/common/combinatorics.h"

namespace hos::lattice {
namespace {

// kBitClear[i] selects the in-word positions whose dimension-i bit is 0.
constexpr uint64_t kBitClear[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};

// kPositionsWithBits[j] selects the in-word positions with exactly j bits
// set: word w's masks at level m are its undecided bits in
// kPositionsWithBits[m - popcount(w)].
constexpr std::array<uint64_t, 7> kPositionsWithBits = [] {
  std::array<uint64_t, 7> table{};
  for (int pos = 0; pos < 64; ++pos) {
    table[std::popcount(static_cast<unsigned>(pos))] |= uint64_t{1} << pos;
  }
  return table;
}();

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

}  // namespace

DenseLatticeStore::DenseLatticeStore(int num_dims) : LatticeStore(num_dims) {
  assert(num_dims >= 1 && num_dims <= kDenseMaxDims);
  const uint64_t size = uint64_t{1} << num_dims;
  state_.assign(size, 0);
  const size_t words = std::max<uint64_t>(size >> 6, 1);
  // Every non-empty mask starts undecided; below d = 6 the one word holds
  // only 2^d positions.
  undecided_.assign(words, ~uint64_t{0});
  if (size < 64) undecided_[0] = (uint64_t{1} << size) - 1;
  undecided_[0] &= ~uint64_t{1};
  for (int m = 1; m <= num_dims; ++m) {
    undecided_count_[m] = Binomial(num_dims, m);
  }
  up_closure_.resize(words);
  down_closure_.resize(words);
}

void DenseLatticeStore::Propagate() {
  const bool up = !pending_outlier_seeds_.empty();
  const bool down = !pending_non_outlier_seeds_.empty();
  if (!up && !down) return;
  // Closures of the pending seeds only: everything covered by an earlier
  // seed was decided by an earlier Propagate. The seeds themselves are in
  // their closures but already evaluated, so not in the undecided set.
  if (up) {
    SeedBits(up_closure_, pending_outlier_seeds_);
    CloseUpward(up_closure_, num_dims_);
  }
  if (down) {
    SeedBits(down_closure_, pending_non_outlier_seeds_);
    CloseDownward(down_closure_, num_dims_);
  }
  // Writes `state` for every mask of word `w` set in `bits`.
  auto decide = [&](size_t w, uint64_t bits, SubspaceState state,
                    std::vector<uint64_t>& tally) {
    for (; bits != 0; bits &= bits - 1) {
      const uint64_t mask = (uint64_t{w} << 6) | std::countr_zero(bits);
      const int m = std::popcount(mask);
      state_[mask] = static_cast<uint8_t>(state);
      ++tally[m];
      --undecided_count_[m];
    }
  };
  for (size_t w = 0; w < undecided_.size(); ++w) {
    const uint64_t open = undecided_[w];
    if (open == 0) continue;
    // Upward pruning wins when a mask is in both closures (possible only
    // for a non-monotone verdict sequence).
    const uint64_t newly_out = up ? open & up_closure_[w] : 0;
    const uint64_t newly_non =
        down ? open & down_closure_[w] & ~newly_out : 0;
    if ((newly_out | newly_non) == 0) continue;
    undecided_[w] = open & ~(newly_out | newly_non);
    decide(w, newly_out, SubspaceState::kInferredOutlier, inferred_outliers_);
    decide(w, newly_non, SubspaceState::kInferredNonOutlier,
           inferred_non_outliers_);
  }
  pending_outlier_seeds_.clear();
  pending_non_outlier_seeds_.clear();
}

void DenseLatticeStore::ForEachUndecided(
    int m, const std::function<void(uint64_t)>& fn) const {
  for (size_t w = 0; w < undecided_.size(); ++w) {
    const int low = m - std::popcount(uint64_t{w});
    if (low < 0 || low > 6) continue;
    for (uint64_t bits = undecided_[w] & kPositionsWithBits[low]; bits != 0;
         bits &= bits - 1) {
      fn((uint64_t{w} << 6) | std::countr_zero(bits));
    }
  }
}

}  // namespace hos::lattice
