#include "src/lattice/sparse_lattice_store.h"

#include <algorithm>
#include <cassert>

#include "src/common/combinatorics.h"
#include "src/lattice/closure_counts.h"

namespace hos::lattice {

namespace {

/// Adds each of `seeds` to the antichain `kept` of minimal masks (or, with
/// `maximal`, maximal ones): a seed dominated by a kept mask is dropped, and
/// kept masks it dominates are removed.
void FoldIntoAntichain(const std::vector<uint64_t>& seeds, bool maximal,
                       std::vector<uint64_t>* kept) {
  // True when `a` makes `b` redundant: a subset of it (minimal) or a
  // superset (maximal).
  auto dominates = [maximal](uint64_t a, uint64_t b) {
    return maximal ? (a & b) == b : (a & b) == a;
  };
  for (uint64_t seed : seeds) {
    if (std::any_of(kept->begin(), kept->end(),
                    [&](uint64_t k) { return dominates(k, seed); })) {
      continue;
    }
    std::erase_if(*kept, [&](uint64_t k) { return dominates(seed, k); });
    kept->push_back(seed);
  }
}

}  // namespace

SparseLatticeStore::SparseLatticeStore(int num_dims)
    : LatticeStore(num_dims) {
  level_size_.assign(num_dims + 1, 0);
  for (int m = 1; m <= num_dims; ++m) {
    level_size_[m] = Binomial(num_dims, m);
    undecided_count_[m] = level_size_[m];
  }
}

SubspaceState SparseLatticeStore::ClassifyUnmapped(uint64_t mask) const {
  // Every seed is itself evaluated (and therefore in the map), so on this
  // path mask != seed always holds and non-strict containment suffices.
  for (uint64_t seed : applied_up_seeds_) {
    if ((mask & seed) == seed) return SubspaceState::kInferredOutlier;
  }
  for (uint64_t seed : applied_down_seeds_) {
    if ((mask & seed) == mask) return SubspaceState::kInferredNonOutlier;
  }
  return SubspaceState::kUndecided;
}

SubspaceState SparseLatticeStore::StateOf(const Subspace& s) const {
  const auto it = evaluated_.find(s.mask());
  if (it != evaluated_.end()) return it->second;
  return ClassifyUnmapped(s.mask());
}

void SparseLatticeStore::ForEachUndecided(
    int m, const std::function<void(uint64_t)>& fn) const {
  if (undecided_count_[m] == 0) return;
  ForEachMaskOfLevel(num_dims_, m, [&](uint64_t mask) {
    if (evaluated_.contains(mask)) return;
    if (ClassifyUnmapped(mask) == SubspaceState::kUndecided) fn(mask);
  });
}

void SparseLatticeStore::Propagate() {
  if (pending_outlier_seeds_.empty() && pending_non_outlier_seeds_.empty()) {
    return;
  }
  // Folding the pending seeds into the applied antichains makes the decided
  // region exactly their closures (the up-closure of the minimal outlier
  // seeds equals the up-closure of every outlier ever evaluated, and dually
  // below), so the snapshot is the whole truth.
  FoldIntoAntichain(pending_outlier_seeds_, /*maximal=*/false,
                    &applied_up_seeds_);
  FoldIntoAntichain(pending_non_outlier_seeds_, /*maximal=*/true,
                    &applied_down_seeds_);
  pending_outlier_seeds_.clear();
  pending_non_outlier_seeds_.clear();
  RecomputeLevelTallies();
}

void SparseLatticeStore::RecomputeLevelTallies() {
  const int d = num_dims_;
  // Closed-form counts are computed at most once per Propagate and shared
  // by every level too large to enumerate.
  std::vector<uint64_t> up_closed, down_closed;
  bool have_closed_form = false;

  for (int m = 1; m <= d; ++m) {
    uint64_t up = 0, down = 0;
    if (level_size_[m] <= kEnumerationBudget) {
      ForEachMaskOfLevel(d, m, [&](uint64_t mask) {
        const auto it = evaluated_.find(mask);
        const SubspaceState st =
            it != evaluated_.end() ? it->second : ClassifyUnmapped(mask);
        if (IsOutlierState(st)) {
          ++up;
        } else if (IsDecided(st)) {
          ++down;
        }
      });
    } else {
      if (!have_closed_form) {
        up_closed = UpClosureLevelCounts(applied_up_seeds_, d);
        down_closed = DownClosureLevelCounts(applied_down_seeds_, d);
        have_closed_form = true;
      }
      up = up_closed[m];
      down = down_closed[m];
    }
    // By OD monotonicity the two closures are disjoint and contain exactly
    // the evaluated masks of their own polarity, so the subtractions below
    // are the per-level inferred tallies a dense propagation sweep counts.
    // Should floating-point rounding ever produce a monotonicity-violating
    // verdict pair, the closed-form path would double-count their overlap;
    // saturate instead of wrapping so the tallies stay in range and the
    // search still terminates (the dense backend degrades by propagate
    // order in the same never-observed regime — the debug asserts keep the
    // condition loud).
    assert(up >= evaluated_outliers_[m]);
    assert(down >= evaluated_non_outliers_[m]);
    assert(up + down <= level_size_[m]);
    const uint64_t decided = std::min(up + down, level_size_[m]);
    inferred_outliers_[m] =
        up > evaluated_outliers_[m] ? up - evaluated_outliers_[m] : 0;
    inferred_non_outliers_[m] =
        down > evaluated_non_outliers_[m] ? down - evaluated_non_outliers_[m]
                                          : 0;
    undecided_count_[m] = level_size_[m] - decided;
  }
}

}  // namespace hos::lattice
