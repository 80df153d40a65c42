// SparseLatticeStore: the hash-map lattice backend that lifts the dense
// d <= 22 cap. Only explicitly *evaluated* masks are stored; every other
// mask is classified on demand against the seed closures (Properties 1-2:
// superset of an outlier seed => inferred outlier, subset of a non-outlier
// seed => inferred non-outlier), so memory scales with the frontier band
// the search actually touches, not with 2^d.
//
// To mirror the dense backend exactly, inference becomes visible only at
// Propagate(): classification runs against the seed antichains Propagate
// keeps, folding in the pending seeds each time it runs, so a mask
// covered only by a seed evaluated since still reads kUndecided — the same
// observable sequence a dense store produces. Undecided sets are never
// materialised: ForEachUndecided enumerates the level lazily (Gosper's
// hack, ascending — the canonical order all backends share) and filters by
// closure membership.
//
// Per-level tallies cannot be maintained by sweeping 2^d states, so
// Propagate recomputes them as closed-form C(d, m) minus seed-closure
// counts: levels small enough to enumerate are counted directly (robust
// whatever the seed structure), larger levels use the branch-and-prune
// closure counting of closure_counts.h, whose cost depends on the seeds
// rather than on C(d, m). Both are exact; they rely on the OD measure's
// monotonicity (paper §2) making the two closures disjoint — the same
// property the pruning strategies themselves are built on.

#ifndef HOS_LATTICE_SPARSE_LATTICE_STORE_H_
#define HOS_LATTICE_SPARSE_LATTICE_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/lattice/lattice_store.h"

namespace hos::lattice {

class SparseLatticeStore final : public LatticeStore {
 public:
  /// Fresh lattice over d dimensions, everything undecided. Requires
  /// 1 <= d <= kMaxLatticeDims (enforced by MakeLatticeStore).
  explicit SparseLatticeStore(int num_dims);

  std::string_view name() const override { return "sparse"; }

  SubspaceState StateOf(const Subspace& s) const override;

  void Propagate() override;

  void ForEachUndecided(
      int m, const std::function<void(uint64_t)>& fn) const override;

  /// Number of masks held explicitly — the evaluated frontier band. The
  /// inferred remainder of the lattice costs nothing.
  size_t allocated_states() const { return evaluated_.size(); }

  /// Levels with at most this many subspaces have their tallies recounted
  /// by direct enumeration at Propagate; larger levels use the closed-form
  /// closure counts. At this budget every level of a d <= 22 lattice is
  /// enumerable (C(22, 11) < 2^20), so the closed form only engages in the
  /// high-d regime where searches are frontier-band shaped and the seed
  /// antichains stay small.
  static constexpr uint64_t kEnumerationBudget = uint64_t{1} << 20;

 protected:
  void RecordEvaluated(uint64_t mask, SubspaceState state) override {
    evaluated_.emplace(mask, state);
  }

 private:
  /// Classifies a mask that is not in the evaluated map against the seed
  /// closures applied by the last Propagate. Upward pruning is checked
  /// first, matching the dense propagation order.
  SubspaceState ClassifyUnmapped(uint64_t mask) const;

  /// Rebuilds inferred tallies and undecided counts for every level from
  /// the applied closures: per level, |up-closure| and |down-closure| by
  /// enumeration or closed form, then
  ///   inferred = closure size - evaluated tally,
  ///   undecided = C(d, m) - both closure sizes.
  void RecomputeLevelTallies();

  std::unordered_map<uint64_t, SubspaceState> evaluated_;
  /// Seed masks whose closures Propagate has applied: the minimal outlier
  /// and maximal non-outlier antichains of every verdict folded in so far,
  /// kept up to date incrementally because every classification reads them.
  std::vector<uint64_t> applied_up_seeds_;
  std::vector<uint64_t> applied_down_seeds_;
  std::vector<uint64_t> level_size_;  // C(d, m), index by m
};

}  // namespace hos::lattice

#endif  // HOS_LATTICE_SPARSE_LATTICE_STORE_H_
