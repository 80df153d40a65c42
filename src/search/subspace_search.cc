#include "src/search/subspace_search.h"

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/timer.h"
#include "src/filter/minimal_filter.h"
#include "src/search/frontier_support.h"

namespace hos::search {
namespace {

using internal::AssembleOutcome;
using internal::CheckSearchBudget;

/// Runs the per-level frontier of a pruning search, sequentially or fanned
/// out across a pool (ParallelEvaluator). One instance per Run so
/// per-search state stays on the calling thread's stack.
class FrontierRunner {
 public:
  FrontierRunner(OdEvaluator* od, double threshold,
                 const SearchExecution& exec)
      : od_(od), threshold_(threshold), tracer_(exec.tracer),
        filter_(internal::ActiveFilter(exec)), evaluator_(od, exec) {}

  /// Evaluates every currently-undecided subspace of level m and records
  /// the verdicts in mask order — the exact seed sequence the sequential
  /// loop would have produced — then propagates. Same-level subspaces
  /// cannot prune each other (pruning only crosses levels), so the whole
  /// batch is independent and safe to evaluate concurrently.
  ///
  /// The wave is the only per-level vector the search materialises: the
  /// store itself yields undecided masks through a lazy generator
  /// (ForEachUndecided), and the frontier must be addressable because the
  /// parallel fan-out writes each mask's OD into a pre-assigned slot.
  /// `trace_parent`: span the level span attaches under when tracing is
  /// on (the strategy span); ignored otherwise.
  void EvaluateLevel(int m, lattice::LatticeStore* state,
                     int trace_parent = -1) {
    obs::ScopedSpan level_span(
        tracer_, "level", trace_parent,
        tracer_ != nullptr ? "m=" + std::to_string(m) : std::string());
    const std::vector<uint64_t> wave = state->UndecidedMasks(m);
    if (filter_ == nullptr) {
      state->MarkEvaluatedBatch(
          wave, evaluator_.EvaluateBatch(wave, level_span.id()), threshold_);
      state->Propagate();
      return;
    }

    // Density-filter pre-admission: memo hits keep their exact value (free,
    // and no counter moves), masks the bounds decide skip the exact wave,
    // and the rest go to the kNN path. Bound verdicts enter the lattice as
    // threshold sentinels in the original mask order, so the lattice —
    // which stores only `od >= T` — evolves bit-for-bit as it would with
    // the filter off.
    std::vector<double> values(wave.size(), 0.0);
    std::vector<uint64_t> exact_wave;
    std::vector<size_t> exact_slots;  // wave index of each exact_wave entry
    for (size_t i = 0; i < wave.size(); ++i) {
      if (od_->LookupLocal(wave[i], &values[i])) continue;
      const filter::FilterDecision fd = filter_->Decide(
          od_->point(), wave[i], od_->k(), od_->exclude(), threshold_);
      if (fd.decided()) {
        values[i] = fd.verdict == filter::FilterDecision::Verdict::kOutlier
                        ? std::numeric_limits<double>::infinity()
                        : -std::numeric_limits<double>::infinity();
        ++bound_decisions_;
        continue;
      }
      exact_wave.push_back(wave[i]);
      exact_slots.push_back(i);
    }
    const std::vector<double> exact =
        evaluator_.EvaluateBatch(exact_wave, level_span.id());
    for (size_t j = 0; j < exact.size(); ++j) values[exact_slots[j]] = exact[j];
    state->MarkEvaluatedBatch(wave, values, threshold_);
    state->Propagate();
  }

  /// Subspaces the density filter decided (SearchCounters::bound_decisions).
  uint64_t bound_decisions() const { return bound_decisions_; }

 private:
  OdEvaluator* od_;
  double threshold_;
  obs::QueryTracer* tracer_;
  /// Null when the filter is off.
  const filter::DensityBoundFilter* filter_;
  ParallelEvaluator evaluator_;
  uint64_t bound_decisions_ = 0;
};

// The work-budget gate and outcome assembly live in frontier_support.h,
// shared with the fused BatchFrontierRunner so both drivers keep identical
// error contracts and counter semantics.

}  // namespace

// ---------------------------------------------------------------------------
// DynamicSubspaceSearch
// ---------------------------------------------------------------------------

DynamicSubspaceSearch::DynamicSubspaceSearch(int num_dims,
                                             lattice::PruningPriors priors)
    : num_dims_(num_dims), priors_(std::move(priors)) {}

Result<SearchOutcome> DynamicSubspaceSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  // Mis-sized priors would index out of bounds in TotalSavingFactor; fail
  // loudly instead (priors come from callers' learning reports, so the
  // mismatch is an input error, not a programming invariant).
  if (priors_.num_dims() != num_dims_) {
    return Status::InvalidArgument(
        "pruning priors cover " + std::to_string(priors_.num_dims()) +
        " dimensions but the search runs over " + std::to_string(num_dims_));
  }
  Timer timer;
  const uint64_t od_before = od->num_evaluations();
  const uint64_t dist_before = od->engine().distance_computations();
  HOS_ASSIGN_OR_RETURN(
      std::unique_ptr<lattice::LatticeStore> state,
      lattice::MakeLatticeStore(num_dims_, exec.lattice_backend));
  uint64_t steps = 0;
  obs::ScopedSpan strategy_span(exec.tracer, name(), exec.trace_parent);
  FrontierRunner runner(od, threshold, exec);

  // Paper §3.3: start at the level with the highest TSF; after each batch
  // the remaining-workload fractions change, so TSF is recomputed and the
  // next-best level is chosen, until everything is evaluated or pruned.
  while (true) {
    int m = lattice::BestLevel(priors_, *state);
    if (m == 0) break;
    HOS_RETURN_IF_ERROR(
        CheckSearchBudget(exec, *od, od_before, m, state->UndecidedCount(m)));
    runner.EvaluateLevel(m, state.get(), strategy_span.id());
    ++steps;
  }
  return AssembleOutcome(*state, threshold, *od, od_before, dist_before, steps,
                         timer, runner.bound_decisions());
}

// ---------------------------------------------------------------------------
// ExhaustiveSearch
// ---------------------------------------------------------------------------

Result<SearchOutcome> ExhaustiveSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  Timer timer;
  const uint64_t od_before = od->num_evaluations();
  const uint64_t dist_before = od->engine().distance_computations();
  HOS_ASSIGN_OR_RETURN(
      std::unique_ptr<lattice::LatticeStore> state,
      lattice::MakeLatticeStore(num_dims_, exec.lattice_backend));
  uint64_t steps = 0;
  // No Propagate(): every subspace is evaluated explicitly.
  obs::ScopedSpan strategy_span(exec.tracer, name(), exec.trace_parent);
  ParallelEvaluator evaluator(od, exec);
  for (int m = 1; m <= num_dims_; ++m) {
    HOS_RETURN_IF_ERROR(
        CheckSearchBudget(exec, *od, od_before, m, state->UndecidedCount(m)));
    obs::ScopedSpan level_span(
        exec.tracer, "level", strategy_span.id(),
        exec.tracer != nullptr ? "m=" + std::to_string(m) : std::string());
    const std::vector<uint64_t> batch = state->UndecidedMasks(m);
    state->MarkEvaluatedBatch(
        batch, evaluator.EvaluateBatch(batch, level_span.id()), threshold);
    ++steps;
  }
  return AssembleOutcome(*state, threshold, *od, od_before, dist_before, steps,
                         timer);
}

// ---------------------------------------------------------------------------
// Static level orders
// ---------------------------------------------------------------------------

Result<SearchOutcome> BottomUpSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  Timer timer;
  const uint64_t od_before = od->num_evaluations();
  const uint64_t dist_before = od->engine().distance_computations();
  HOS_ASSIGN_OR_RETURN(
      std::unique_ptr<lattice::LatticeStore> state,
      lattice::MakeLatticeStore(num_dims_, exec.lattice_backend));
  uint64_t steps = 0;
  obs::ScopedSpan strategy_span(exec.tracer, name(), exec.trace_parent);
  FrontierRunner runner(od, threshold, exec);
  for (int m = 1; m <= num_dims_; ++m) {
    if (state->UndecidedCount(m) == 0) continue;
    HOS_RETURN_IF_ERROR(
        CheckSearchBudget(exec, *od, od_before, m, state->UndecidedCount(m)));
    runner.EvaluateLevel(m, state.get(), strategy_span.id());
    ++steps;
  }
  return AssembleOutcome(*state, threshold, *od, od_before, dist_before, steps,
                         timer, runner.bound_decisions());
}

Result<SearchOutcome> TopDownSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  Timer timer;
  const uint64_t od_before = od->num_evaluations();
  const uint64_t dist_before = od->engine().distance_computations();
  HOS_ASSIGN_OR_RETURN(
      std::unique_ptr<lattice::LatticeStore> state,
      lattice::MakeLatticeStore(num_dims_, exec.lattice_backend));
  uint64_t steps = 0;
  obs::ScopedSpan strategy_span(exec.tracer, name(), exec.trace_parent);
  FrontierRunner runner(od, threshold, exec);
  for (int m = num_dims_; m >= 1; --m) {
    if (state->UndecidedCount(m) == 0) continue;
    HOS_RETURN_IF_ERROR(
        CheckSearchBudget(exec, *od, od_before, m, state->UndecidedCount(m)));
    runner.EvaluateLevel(m, state.get(), strategy_span.id());
    ++steps;
  }
  return AssembleOutcome(*state, threshold, *od, od_before, dist_before, steps,
                         timer, runner.bound_decisions());
}

}  // namespace hos::search
