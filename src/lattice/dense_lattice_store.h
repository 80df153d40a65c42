// DenseLatticeStore: the flat-array lattice backend — one byte of state per
// subspace (2^d total) plus a 2^d-bit set of the still-undecided masks.
// Constant-time state lookup and word-parallel propagation make it the
// right choice whenever the whole lattice fits comfortably in memory, which
// is the d <= kDenseMaxDims regime MakeLatticeStore selects it for.
//
// A bitset over the 2^d masks holds mask x at bit (x & 63) of word x >> 6,
// so dimensions 0-5 index bits inside a word and dimensions 6+ index words.
//
// Costs:
//  * Construction fills 2^d / 64 words and zeroes the 2^d state bytes.
//  * Propagate() costs O(d * 2^d / 64 + newly decided) whatever the number
//    of pending seeds: the pending outlier seeds are closed upward and the
//    pending non-outlier seeds downward over a 2^d-bit set (d rounds of
//    word-wise ORs each), then one word pass intersects them with the
//    undecided set — newly_out = undecided & up, newly_non = undecided &
//    down & ~newly_out (upward pruning wins) — and only the newly decided
//    bits are visited to write their state and level tallies.
//  * ForEachUndecided(m) scans the 2^d / 64 undecided words and keeps, in
//    word w, the in-word positions with m - popcount(w) bits set.

#ifndef HOS_LATTICE_DENSE_LATTICE_STORE_H_
#define HOS_LATTICE_DENSE_LATTICE_STORE_H_

#include <cstdint>
#include <vector>

#include "src/lattice/lattice_store.h"

namespace hos::lattice {

class DenseLatticeStore final : public LatticeStore {
 public:
  /// Fresh lattice over d dimensions, everything undecided. Requires
  /// 1 <= d <= kDenseMaxDims (enforced by MakeLatticeStore).
  explicit DenseLatticeStore(int num_dims);

  std::string_view name() const override { return "dense"; }

  SubspaceState StateOf(const Subspace& s) const override {
    return static_cast<SubspaceState>(state_[s.mask()]);
  }

  void Propagate() override;

  void ForEachUndecided(
      int m, const std::function<void(uint64_t)>& fn) const override;

 protected:
  void RecordEvaluated(uint64_t mask, SubspaceState state) override {
    state_[mask] = static_cast<uint8_t>(state);
    undecided_[mask >> 6] &= ~(uint64_t{1} << (mask & 63));
  }

 private:
  std::vector<uint8_t> state_;       // indexed by mask
  std::vector<uint64_t> undecided_;  // one bit per mask
  // Propagate's scratch: one bit per mask, reused across calls.
  std::vector<uint64_t> up_closure_;
  std::vector<uint64_t> down_closure_;
};

}  // namespace hos::lattice

#endif  // HOS_LATTICE_DENSE_LATTICE_STORE_H_
