// DenseLatticeStore: the flat-array lattice backend — one byte of state per
// subspace (2^d total) plus materialised per-level undecided vectors.
// Constant-time state lookup and word-parallel propagation make it the
// right choice whenever the whole lattice fits comfortably in memory, which
// is the d <= kDenseMaxDims regime MakeLatticeStore selects it for.
//
// Propagate() costs O(d * 2^d / 64 + undecided) whatever the number of
// pending seeds: the pending outlier seeds are closed upward and the
// pending non-outlier seeds downward over a 2^d-bit set (d rounds of
// word-wise ORs each), then one pass over the undecided level vectors
// reads each mask's two closure bits.

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
  }

 private:
  std::vector<uint8_t> state_;                    // indexed by mask
  std::vector<std::vector<uint64_t>> undecided_;  // per level, lazily filtered
  // Propagate's scratch: one bit per mask, reused across calls.
  std::vector<uint64_t> up_closure_;
  std::vector<uint64_t> down_closure_;
};

}  // namespace hos::lattice

#endif  // HOS_LATTICE_DENSE_LATTICE_STORE_H_
