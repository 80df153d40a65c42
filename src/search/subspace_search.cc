#include "src/search/subspace_search.h"

#include <string>
#include <utility>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/timer.h"
#include "src/filter/minimal_filter.h"

namespace hos::search {
namespace {

/// Runs `runner` over the one point `od` is bound to.
Result<SearchOutcome> RunOne(const BatchFrontierRunner& runner,
                             OdEvaluator* od, double threshold,
                             const SearchExecution& exec) {
  OdEvaluator* const ods[] = {od};
  return std::move(runner.Run(ods, threshold, exec).front());
}

}  // namespace

DynamicSubspaceSearch::DynamicSubspaceSearch(int num_dims,
                                             lattice::PruningPriors priors)
    : num_dims_(num_dims), priors_(std::move(priors)) {}

Result<SearchOutcome> DynamicSubspaceSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  return RunOne(BatchFrontierRunner(num_dims_, &priors_), od, threshold,
                exec);
}

Result<SearchOutcome> BottomUpSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  return RunOne(BatchFrontierRunner(num_dims_, nullptr, LevelOrder::kBottomUp),
                od, threshold, exec);
}

Result<SearchOutcome> TopDownSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  return RunOne(BatchFrontierRunner(num_dims_, nullptr, LevelOrder::kTopDown),
                od, threshold, exec);
}

Result<SearchOutcome> ExhaustiveSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  HOS_RETURN_IF_ERROR(
      lattice::ValidateLatticeStoreConfig(num_dims_, exec.lattice_backend));
  Timer timer;
  const uint64_t od_before = od->num_evaluations();
  const uint64_t dist_before = od->engine().distance_computations();
  obs::ScopedSpan strategy_span(exec.tracer, name(), exec.trace_parent);
  SearchOutcome outcome;
  outcome.num_dims = num_dims_;
  outcome.threshold = threshold;
  outcome.outlier_fraction.assign(num_dims_ + 1, 0.0);
  for (int m = 1; m <= num_dims_; ++m) {
    // The work budget, charged a whole level before any of it runs.
    const uint64_t level_count = Binomial(num_dims_, m);
    const uint64_t spent = od->num_evaluations() - od_before;
    if (exec.max_od_evaluations != 0 &&
        spent + level_count > exec.max_od_evaluations) {
      return Status::ResourceExhausted(
          "search work budget exceeded: exhaustive level " +
          std::to_string(m) + " holds " + std::to_string(level_count) +
          " subspaces, but " + std::to_string(spent) + " of the " +
          std::to_string(exec.max_od_evaluations) +
          " budgeted OD evaluations are spent");
    }
    obs::ScopedSpan level_span(
        exec.tracer, "level", strategy_span.id(),
        exec.tracer != nullptr ? "m=" + std::to_string(m) : std::string());
    uint64_t outliers = 0;
    ForEachMaskOfLevel(num_dims_, m, [&](uint64_t mask) {
      if (od->Evaluate(Subspace(mask)) >= threshold) {
        outcome.evaluated_outliers.push_back(Subspace(mask));
        ++outliers;
      }
    });
    outcome.outlier_fraction[m] =
        static_cast<double>(outliers) / static_cast<double>(level_count);
    ++outcome.counters.steps;
  }
  outcome.minimal_outlying_subspaces =
      filter::MinimalSubspaces(outcome.evaluated_outliers);
  outcome.counters.od_evaluations = od->num_evaluations() - od_before;
  outcome.counters.distance_computations =
      od->engine().distance_computations() - dist_before;
  outcome.counters.elapsed_seconds = timer.ElapsedSeconds();
  return outcome;
}

}  // namespace hos::search
