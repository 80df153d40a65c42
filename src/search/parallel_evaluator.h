// ParallelEvaluator: fans the OD evaluations of one frontier batch out
// across a service::ThreadPool and merges the values back into the search
// thread's OdEvaluator, preserving the exact results and counters a
// sequential walk over the same batch would have produced.
//
// Equivalence argument: OD(p, s) is a pure function of the dataset, k and
// the metric, so the double a worker computes for a mask is bitwise the
// value the sequential loop would have computed. Chunk boundaries depend
// only on the batch size and the configured chunk size (never on timing),
// each mask's value is written into its own pre-assigned slot, and the
// merge deposits values in batch order on the calling thread — so neither
// scheduling nor completion order can influence anything observable.
//
// Worker-side state is per-task scratch only (a KnnQuery and the engine's
// internal candidate buffers); the shared pieces they touch — the KnnEngine
// (const, relaxed-atomic counters) and the SharedOdStore (thread-safe by
// contract) — are exactly the ones the concurrent QueryService already
// exercises.

#ifndef HOS_SEARCH_PARALLEL_EVALUATOR_H_
#define HOS_SEARCH_PARALLEL_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/filter/density_filter.h"
#include "src/lattice/lattice_store.h"
#include "src/obs/trace.h"
#include "src/search/od_evaluator.h"

namespace hos::service {
class ThreadPool;
}  // namespace hos::service

namespace hos::search {

/// How a search strategy executes its frontier batches. The default runs
/// everything sequentially on the calling thread; attaching a pool turns on
/// parallel frontier evaluation. Answers are identical either way (tested
/// by tests/search/strategy_differential_test.cc).
struct SearchExecution {
  /// Borrowed worker pool; null ⇒ sequential. Must NOT be the pool the
  /// calling task itself runs on: frontier waves block on their chunk
  /// futures, and a pool whose workers all wait on tasks queued behind
  /// them deadlocks. QueryService therefore keeps a dedicated search pool
  /// next to its query pool.
  service::ThreadPool* pool = nullptr;

  /// Caps concurrent chunks per wave; 0 ⇒ the pool's full width. Values
  /// <= 1 with a pool still evaluate sequentially (on the caller).
  int max_threads = 0;

  /// Masks per worker task; 0 ⇒ auto (batch split into ~4 chunks per
  /// worker so stragglers rebalance). Chunking is deterministic: it
  /// depends only on batch size and this value, never on timing.
  int chunk_size = 0;

  /// Work budget: the maximum number of fresh OD evaluations (kNN
  /// searches) one Run may spend; 0 means unlimited. Checked before each
  /// level batch — against the batch's undecided count, so an
  /// intractably large level (exhaustive or non-band data at d > 22 can
  /// reach C(d, m) ~ 10^11 subspaces) fails fast with ResourceExhausted
  /// instead of first materialising the wave, let alone evaluating it.
  /// Only fresh evaluations consume budget (memo and SharedOdStore hits do
  /// not), but the pre-batch check conservatively charges a level's whole
  /// undecided count.
  uint64_t max_od_evaluations = 0;

  /// Which lattice storage backend the search builds its state in. kAuto
  /// picks dense for d <= lattice::kDenseMaxDims and the hash-map sparse
  /// store above; both are answer-identical (held bitwise by
  /// tests/search/strategy_differential_test.cc), differing only in memory
  /// footprint and the reachable dimensionality. Forcing kDense past its
  /// cap makes the search return InvalidArgument.
  lattice::LatticeBackend lattice_backend = lattice::LatticeBackend::kAuto;

  /// Density-bound pre-filter consulted by the pruning strategies before
  /// dispatching a frontier mask to the exact kNN path; null or kOff ⇒
  /// every mask takes the exact path. ExhaustiveSearch ignores the filter —
  /// it is the oracle the differential suites compare everything against.
  /// kConservative acts only on proofs, so answers are bitwise identical to
  /// kOff (held by tests/filter/filter_differential_test.cc).
  const filter::DensityBoundFilter* filter = nullptr;
  filter::FilterMode filter_mode = filter::FilterMode::kOff;

  /// Per-query trace sink; null ⇒ tracing off (the default, and the only
  /// cost disabled tracing pays is this null check). The tracer must
  /// tolerate concurrent BeginSpan/EndSpan — frontier workers record
  /// their kNN spans from pool threads. Tracing never changes answers:
  /// spans are observations only (held by the trace differential test).
  obs::QueryTracer* tracer = nullptr;
  /// Span id the search strategy's spans attach under (-1 = root).
  int trace_parent = -1;
};

class ParallelEvaluator {
 public:
  /// `root` must outlive the evaluator and must not be used concurrently
  /// with EvaluateBatch.
  ParallelEvaluator(OdEvaluator* root, const SearchExecution& exec);

  /// Evaluates OD(p, s) for every mask, returning the values aligned with
  /// `masks`, and deposits all results into the root evaluator's memo (in
  /// batch order). Blocks until the whole wave is done. Duplicate masks
  /// are tolerated — counters count each distinct mask once (Deposit
  /// deduplicates) — but two copies both missing the memo are each
  /// computed, so callers should pass distinct masks (the search strategies
  /// do: a wave is one lattice level, whose masks are unique).
  ///
  /// `trace_parent` is the span id this wave's kNN / OD-store spans attach
  /// under when tracing is on (typically the strategy's level span).
  std::vector<double> EvaluateBatch(std::span<const uint64_t> masks,
                                    int trace_parent = -1);

  /// Effective number of concurrent chunks per wave (1 ⇒ sequential).
  int concurrency() const { return concurrency_; }

 private:
  /// The sequential miss path of OdEvaluator::Evaluate, runnable on any
  /// thread: shared-store probe, then a kNN query, then a store write.
  /// Emits a "knn" (fresh evaluation) or "od_store_hit" span under
  /// `trace_parent` when tracing is on.
  double ComputeOne(uint64_t mask, OdEvaluator::ValueSource* source,
                    int trace_parent) const;

  OdEvaluator* root_;
  service::ThreadPool* pool_;
  obs::QueryTracer* tracer_;
  int concurrency_;
  int chunk_size_;
};

}  // namespace hos::search

#endif  // HOS_SEARCH_PARALLEL_EVALUATOR_H_
