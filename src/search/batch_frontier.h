// BatchFrontierRunner: the one driver of the lattice walk (paper §3.3).
// Every round it advances each live point by one level: pick the level
// (by Total Saving Factor, or in a static bottom-up / top-down order),
// resolve what the per-query memo and the density filter can, serve the
// remaining OD evaluations, merge the verdicts in mask order and propagate
// both pruning directions. A block of B points shares the rounds, so OD
// evaluations landing on the same subspace in the same round are served by
// ONE pass of the kNN backend's batched entry point (KnnEngine::SearchBatch
// → the multi-point distance kernel) instead of B independent traversals.
// The single-point strategies (DynamicSubspaceSearch, BottomUpSearch,
// TopDownSearch) are this runner at B=1.
//
// Why a point's answer does not depend on its batch-mates: each walk is a
// deterministic function of (a) the level order (and, for the TSF order,
// the shared pruning priors) and (b) that point's own OD values — level
// choice reads only the point's own lattice state, pruning propagates only
// within the point's own lattice, and the density filter decides from the
// point's own cells. OD(p, s) is a pure function of the dataset, k and the
// metric, and the batched kNN entry points return bitwise-identical values
// to their per-point forms (held by the backend batch tests). So a point
// walked in a block of B takes exactly the walk it takes alone, while the
// engine serves the coinciding evaluations fused.
// tests/search/batch_differential_test.cc holds this across backends,
// lattice stores and filter modes, and against the ExhaustiveSearch
// oracle.
//
// Intra-query parallelism: with SearchExecution::pool set, a round's
// distinct-mask kNN passes fan out across the pool in deterministic
// chunks, each pass writing into pre-assigned slots. Memo deposits, store
// writes and lattice merges stay on the calling thread, in mask order, so
// scheduling cannot influence anything observable
// (tests/search/strategy_differential_test.cc, at 2/4/8 threads).
//
// What does depend on the block (monitoring values only):
//  * counters.distance_computations / elapsed_seconds — the engine's work
//    counters are shared by the whole block, so a point's delta includes
//    its batch-mates' fused work.
//  * With a SharedOdStore attached, batch-mates may populate the store for
//    each other, changing hit/computed tallies (exactly as two sequential
//    runs with different cache warmth already do). Values never change —
//    the store only ever returns bitwise-identical memoised doubles.
//  * Store traffic is batched per round, not per subspace: one
//    LookupMulti for every open (point, mask) of the round, probed in
//    (point, slot) order, and one StoreMulti for everything the round
//    computed, in (mask, point) order. Only the store's misses are sorted
//    by (mask, point) to form the fused kNN passes, so a fully warm round
//    sorts nothing. No two masks share a store key, so this can change
//    only the store's LRU recency order — and through it, at capacity,
//    which entries are evicted — never a value. Every point must use the
//    same store (or none).

#ifndef HOS_SEARCH_BATCH_FRONTIER_H_
#define HOS_SEARCH_BATCH_FRONTIER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/filter/density_filter.h"
#include "src/lattice/lattice_store.h"
#include "src/lattice/saving_factors.h"
#include "src/obs/trace.h"
#include "src/search/od_evaluator.h"
#include "src/search/search_result.h"

namespace hos::service {
class ThreadPool;
}  // namespace hos::service

namespace hos::search {

/// How a lattice walk executes. The default runs everything sequentially
/// on the calling thread with the automatic lattice backend, no budget, no
/// filter and no tracing. No field changes an answer (held by
/// tests/search/strategy_differential_test.cc).
struct SearchExecution {
  /// Borrowed worker pool; null ⇒ sequential. With a pool, each round's
  /// kNN passes spread over at most the pool's width of tasks. Must NOT be
  /// the pool the calling task itself runs on: a round blocks on its
  /// chunk futures, and a pool whose workers all wait on tasks queued
  /// behind them deadlocks. QueryService therefore keeps a dedicated
  /// search pool next to its query pool.
  service::ThreadPool* pool = nullptr;

  /// Work budget: the maximum number of fresh OD evaluations (kNN
  /// searches) one point's walk may spend; 0 means unlimited. Checked
  /// before each level batch — against the batch's undecided count, so an
  /// intractably large level (exhaustive or non-band data at d > 22 can
  /// reach C(d, m) ~ 10^11 subspaces) fails fast with ResourceExhausted
  /// instead of first materialising the wave, let alone evaluating it.
  /// Only fresh evaluations consume budget (memo and SharedOdStore hits do
  /// not), but the pre-batch check conservatively charges a level's whole
  /// undecided count.
  uint64_t max_od_evaluations = 0;

  /// Which lattice storage backend the walk builds its state in. kAuto
  /// picks dense for d <= lattice::kDenseMaxDims and the hash-map sparse
  /// store above; both are answer-identical, differing only in memory
  /// footprint and the reachable dimensionality. Forcing kDense past its
  /// cap makes the search return InvalidArgument.
  lattice::LatticeBackend lattice_backend = lattice::LatticeBackend::kAuto;

  /// Density-bound pre-filter consulted before dispatching a frontier mask
  /// to the exact kNN path; null or kOff ⇒ every mask takes the exact
  /// path. ExhaustiveSearch ignores the filter — it is the oracle the
  /// differential suites compare everything against. kConservative acts
  /// only on proofs, so answers are bitwise identical to kOff (held by
  /// tests/filter/filter_differential_test.cc).
  const filter::DensityBoundFilter* filter = nullptr;
  filter::FilterMode filter_mode = filter::FilterMode::kOff;

  /// Per-query trace sink; null ⇒ tracing off (the default, and the only
  /// cost disabled tracing pays is this null check). The tracer must
  /// tolerate concurrent BeginSpan/EndSpan — pool workers record their
  /// kNN spans. Tracing never changes answers: spans are observations only
  /// (held by the trace differential test).
  obs::QueryTracer* tracer = nullptr;
  /// Span id the walk's strategy span attaches under (-1 = root).
  int trace_parent = -1;
};

/// How a walk picks its next level.
enum class LevelOrder {
  /// The highest Total Saving Factor under the pruning priors (paper §3.3;
  /// the "dynamic" strategy).
  kTotalSavingFactor,
  /// The lowest level with an undecided subspace ("bottom-up" ablation).
  kBottomUp,
  /// The highest level with an undecided subspace ("top-down" ablation).
  kTopDown,
};

class BatchFrontierRunner {
 public:
  /// `priors` must outlive the runner; the TSF order requires it to cover
  /// `num_dims` dimensions (checked in Run), the static orders ignore it
  /// (null is fine).
  BatchFrontierRunner(int num_dims, const lattice::PruningPriors* priors,
                      LevelOrder order = LevelOrder::kTotalSavingFactor);

  /// Walks the lattice for every evaluator in `ods` (all bound to the same
  /// engine and k; one per query point) and returns one outcome per
  /// point, in input order. A point's answer content (minimal outlying
  /// subspaces, evaluated outliers, outlier fractions, lattice-derived
  /// counters, budget errors) is the same in any block — see the header
  /// comment for the argument and the monitoring-only exceptions.
  /// Per-point budget exhaustion fails only that point; its batch-mates
  /// keep running. Returns InvalidArgument per point for a configuration
  /// the lattice cannot hold (TSF priors sized for another dimensionality,
  /// num_dims outside 1..lattice::kMaxLatticeDims, a forced dense backend
  /// past lattice::kDenseMaxDims).
  std::vector<Result<SearchOutcome>> Run(std::span<OdEvaluator* const> ods,
                                         double threshold,
                                         const SearchExecution& exec) const;

 private:
  /// The level `state`'s walk evaluates next; 0 once everything is
  /// decided.
  int NextLevel(const lattice::LatticeStore& state) const;

  int num_dims_;
  const lattice::PruningPriors* priors_;
  LevelOrder order_;
  /// The TSF order's per-level constants, computed once per runner (empty
  /// for the static orders and for a dimensionality Run rejects).
  std::optional<lattice::SavingFactorTable> saving_factors_;
};

}  // namespace hos::search

#endif  // HOS_SEARCH_BATCH_FRONTIER_H_
