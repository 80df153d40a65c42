// BatchFrontierRunner: fused multi-query lattice search. Co-schedules the
// dynamic (TSF-guided) subspace walk of a block of query points that share
// one threshold, so that OD evaluations landing on the same subspace in
// the same round are served by ONE pass of the kNN backend's batched entry
// point (KnnEngine::SearchBatch → the multi-point distance kernel) instead
// of B independent traversals.
//
// Why per-point answers stay bitwise identical to the sequential loop
// (DynamicSubspaceSearch::Run per point): each point's walk is a
// deterministic function of (a) the shared pruning priors and (b) that
// point's own OD values — level choice (lattice::BestLevel) reads only the
// point's own lattice state, pruning propagates only within the point's
// own lattice, and the density filter decides from the point's own cells.
// OD(p, s) is a pure function of the dataset, k and the metric, and the
// batched kNN entry points return bitwise-identical values to their
// per-point forms (held by the backend batch tests). So running the walks
// in lockstep rounds — every round advances each live point by exactly the
// level its sequential walk would pick next — replays B sequential
// searches exactly, while the engine serves the coinciding evaluations
// fused. tests/search/batch_differential_test.cc holds this across
// backends, lattice stores and filter modes.
//
// What is NOT identical by design (monitoring values only):
//  * counters.distance_computations / elapsed_seconds — the engine's work
//    counters are shared by the whole batch, so a point's delta includes
//    its batch-mates' fused work.
//  * With a SharedOdStore attached, batch-mates may populate the store for
//    each other, changing hit/computed tallies (exactly as two sequential
//    runs with different cache warmth already do). Values never change —
//    the store only ever returns bitwise-identical memoised doubles.
//  * Store traffic is batched per round, not per subspace: one
//    LookupMulti for every open (point, mask) of the round, one
//    StoreMulti for everything the round computed. No two masks share a
//    store key, so this can change only the store's LRU recency order —
//    and through it, at capacity, which entries are evicted — never a
//    value. Every point must use the same store (or none).

#ifndef HOS_SEARCH_BATCH_FRONTIER_H_
#define HOS_SEARCH_BATCH_FRONTIER_H_

#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/lattice/saving_factors.h"
#include "src/search/od_evaluator.h"
#include "src/search/parallel_evaluator.h"
#include "src/search/search_result.h"

namespace hos::search {

class BatchFrontierRunner {
 public:
  /// `priors` must outlive the runner and cover `num_dims` dimensions
  /// (checked in Run, mirroring DynamicSubspaceSearch's contract).
  BatchFrontierRunner(int num_dims, const lattice::PruningPriors* priors)
      : num_dims_(num_dims), priors_(priors) {}

  /// Runs the co-scheduled dynamic search for every evaluator in `ods`
  /// (all bound to the same engine and k; one per query point). Returns
  /// one outcome per point, in input order: outcomes[i]'s answer content
  /// (minimal outlying subspaces, evaluated outliers, outlier fractions,
  /// lattice-derived counters, budget errors) equals what
  /// DynamicSubspaceSearch(num_dims, priors).Run(ods[i], threshold, exec)
  /// returns — see the header comment for the argument and the documented
  /// monitoring-only exceptions. Per-point budget exhaustion fails only
  /// that point; its batch-mates keep running.
  std::vector<Result<SearchOutcome>> Run(std::span<OdEvaluator* const> ods,
                                         double threshold,
                                         const SearchExecution& exec) const;

 private:
  int num_dims_;
  const lattice::PruningPriors* priors_;
};

}  // namespace hos::search

#endif  // HOS_SEARCH_BATCH_FRONTIER_H_
