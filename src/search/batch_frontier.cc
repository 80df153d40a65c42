#include "src/search/batch_frontier.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/timer.h"
#include "src/filter/density_filter.h"
#include "src/lattice/lattice_store.h"
#include "src/obs/trace.h"
#include "src/search/frontier_support.h"

namespace hos::search {
namespace {

/// One point's walk state. The lattice, the counters and the round scratch
/// are all private to the point — the only thing the batch shares is the
/// engine pass that computes coinciding OD values (and, optionally, the
/// cross-query store), neither of which feeds the point's decisions
/// anything but bitwise-exact OD doubles.
struct PointRun {
  OdEvaluator* od = nullptr;
  std::unique_ptr<lattice::LatticeStore> state;
  uint64_t od_before = 0;
  uint64_t dist_before = 0;
  uint64_t steps = 0;
  uint64_t bound_decisions = 0;
  bool done = false;
  // Scratch of the round in flight; wave is cleared on retirement so the
  // merge phase can tell participants from bystanders.
  std::vector<uint64_t> wave;
  std::vector<double> values;
  std::vector<uint8_t> resolved;
};

}  // namespace

std::vector<Result<SearchOutcome>> BatchFrontierRunner::Run(
    std::span<OdEvaluator* const> ods, double threshold,
    const SearchExecution& exec) const {
  if (priors_->num_dims() != num_dims_) {
    // Same input error DynamicSubspaceSearch reports, replicated per point.
    const Status bad = Status::InvalidArgument(
        "pruning priors cover " + std::to_string(priors_->num_dims()) +
        " dimensions but the search runs over " + std::to_string(num_dims_));
    std::vector<Result<SearchOutcome>> out;
    out.reserve(ods.size());
    for (size_t q = 0; q < ods.size(); ++q) out.push_back(bad);
    return out;
  }
  const filter::DensityBoundFilter* filter = internal::ActiveFilter(exec);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  Timer timer;
  std::vector<std::optional<Result<SearchOutcome>>> slots(ods.size());
  std::vector<PointRun> runs(ods.size());
  size_t live = 0;
  for (size_t q = 0; q < ods.size(); ++q) {
    PointRun& run = runs[q];
    run.od = ods[q];
    run.od_before = run.od->num_evaluations();
    run.dist_before = run.od->engine().distance_computations();
    auto made = lattice::MakeLatticeStore(num_dims_, exec.lattice_backend);
    if (!made.ok()) {
      slots[q] = made.status();
      run.done = true;
      continue;
    }
    run.state = std::move(made).value();
    ++live;
  }

  obs::ScopedSpan strategy_span(
      exec.tracer, "batch-dynamic", exec.trace_parent,
      exec.tracer != nullptr ? "points=" + std::to_string(ods.size())
                             : std::string());

  // Round scratch, reused across rounds. `open` holds one entry per
  // (point, wave slot) the memo and the density filter left open; after
  // phase 1 it is sorted by (mask, point), so the points needing the same
  // subspace form one contiguous group. Mask order gives the engine, the
  // tracer and the store a deterministic order (OD values are
  // order-independent regardless).
  struct OpenEval {
    uint64_t mask;
    size_t q;
    size_t slot;
  };
  std::vector<OpenEval> open;
  std::vector<SharedOdStore::OdKey> probe_keys;
  std::vector<size_t> probe_owner;  // index into `open` per probe key
  std::vector<double> probe_values;
  std::vector<uint8_t> probe_found;
  std::vector<size_t> compute;  // indices into `open` of the group in flight
  std::vector<knn::BatchPointQuery> queries;
  std::vector<SharedOdStore::OdKey> store_keys;
  std::vector<double> store_values;

  while (live > 0) {
    open.clear();
    obs::ScopedSpan wave_span(
        exec.tracer, "wave", strategy_span.id(),
        exec.tracer != nullptr ? "points=" + std::to_string(live)
                               : std::string());

    // Phase 1 — per point: pick the level its sequential walk would pick
    // next, apply the budget gate, materialise the wave, and resolve what
    // the memo and the density filter can. This replays the sequential
    // FrontierRunner::EvaluateLevel pre-evaluation half per point, in the
    // identical order (memo first, then filter), with the identical
    // threshold sentinels and tallies.
    for (size_t q = 0; q < runs.size(); ++q) {
      PointRun& run = runs[q];
      if (run.done) continue;
      const int m = lattice::BestLevel(*priors_, *run.state);
      if (m == 0) {
        slots[q] = internal::AssembleOutcome(
            *run.state, threshold, *run.od, run.od_before, run.dist_before,
            run.steps, timer, run.bound_decisions);
        run.done = true;
        run.wave.clear();
        --live;
        continue;
      }
      Status budget = internal::CheckSearchBudget(
          exec, *run.od, run.od_before, m, run.state->UndecidedCount(m));
      if (!budget.ok()) {
        slots[q] = std::move(budget);
        run.done = true;
        run.wave.clear();
        --live;
        continue;
      }
      run.wave = run.state->UndecidedMasks(m);
      run.values.assign(run.wave.size(), 0.0);
      run.resolved.assign(run.wave.size(), 0);
      for (size_t i = 0; i < run.wave.size(); ++i) {
        const uint64_t mask = run.wave[i];
        double memoised;
        if (run.od->LookupLocal(mask, &memoised)) {
          // As in the sequential runner: the memoised value, no counter
          // movement.
          run.values[i] = memoised;
          run.resolved[i] = 1;
          continue;
        }
        if (filter != nullptr) {
          const filter::FilterDecision fd = filter->Decide(
              run.od->point(), mask, run.od->k(), run.od->exclude(),
              threshold);
          if (fd.decided()) {
            run.resolved[i] = 1;
            run.values[i] =
                fd.verdict == filter::FilterDecision::Verdict::kOutlier
                    ? kInf
                    : -kInf;
            ++run.bound_decisions;
            continue;
          }
        }
        open.push_back({mask, q, i});
      }
    }

    // Phase 2 — one multi-probe of the shared store for every shareable
    // open evaluation of the round, then per distinct mask ONE fused kNN
    // pass for what the store did not answer, then one multi-store
    // write-back of everything computed. Each (point, mask) still sees the
    // sequential evaluator's store-probe → kNN → store-write order, and no
    // two masks share a store key, so batching the probes and writes
    // across masks changes no value and no hit (only LRU recency, see the
    // header). The fusion is where the batch recovers B-1 index traversals
    // per coinciding subspace.
    std::sort(open.begin(), open.end(),
              [](const OpenEval& a, const OpenEval& b) {
                return a.mask != b.mask ? a.mask < b.mask : a.q < b.q;
              });
    probe_keys.clear();
    probe_owner.clear();
    SharedOdStore* store = nullptr;
    for (size_t t = 0; t < open.size(); ++t) {
      const OdEvaluator& od = *runs[open[t].q].od;
      if (!od.shareable()) continue;
      assert(store == nullptr || store == od.shared_store());
      store = od.shared_store();
      probe_keys.push_back({*od.exclude(), open[t].mask});
      probe_owner.push_back(t);
    }
    if (!probe_keys.empty()) {
      probe_values.assign(probe_keys.size(), 0.0);
      probe_found.assign(probe_keys.size(), 0);
      store->LookupMulti(probe_keys, probe_values, probe_found);
      for (size_t k = 0; k < probe_keys.size(); ++k) {
        if (!probe_found[k]) continue;
        const OpenEval& e = open[probe_owner[k]];
        PointRun& run = runs[e.q];
        run.od->Deposit(e.mask, probe_values[k],
                        OdEvaluator::ValueSource::kSharedStoreHit);
        run.values[e.slot] = probe_values[k];
        run.resolved[e.slot] = 1;
      }
    }

    store_keys.clear();
    store_values.clear();
    // Per distinct mask (a contiguous run of `open`), one fused kNN pass.
    for (size_t begin = 0, end; begin < open.size(); begin = end) {
      const uint64_t mask = open[begin].mask;
      end = begin + 1;
      while (end < open.size() && open[end].mask == mask) ++end;
      compute.clear();
      queries.clear();
      for (size_t t = begin; t < end; ++t) {
        const PointRun& run = runs[open[t].q];
        if (run.resolved[open[t].slot]) continue;  // store hit
        const OdEvaluator& od = *run.od;
        compute.push_back(t);
        queries.push_back({od.point(), od.exclude()});
      }
      if (compute.empty()) continue;

      const OdEvaluator& lead = *runs[open[compute.front()].q].od;
      obs::ScopedSpan knn_span(
          exec.tracer, "knn-batch", wave_span.id(),
          exec.tracer != nullptr
              ? "mask=" + std::to_string(mask) +
                    " points=" + std::to_string(queries.size())
              : std::string());
      const std::vector<double> fresh = knn::OutlyingDegreeBatch(
          lead.engine(), queries, Subspace(mask), lead.k());

      for (size_t c = 0; c < compute.size(); ++c) {
        const OpenEval& e = open[compute[c]];
        PointRun& run = runs[e.q];
        run.od->Deposit(mask, fresh[c], OdEvaluator::ValueSource::kComputed);
        run.values[e.slot] = fresh[c];
        run.resolved[e.slot] = 1;
        if (run.od->shareable()) {
          store_keys.push_back({*run.od->exclude(), mask});
          store_values.push_back(fresh[c]);
        }
      }
    }
    if (!store_keys.empty()) store->StoreMulti(store_keys, store_values);

    // Phase 3 — per participating point: merge the wave in original mask
    // order (the exact seed sequence the sequential loop produces), then
    // propagate both pruning directions.
    for (PointRun& run : runs) {
      if (run.done || run.wave.empty()) continue;
      assert(std::all_of(run.resolved.begin(), run.resolved.end(),
                         [](uint8_t r) { return r != 0; }));
      run.state->MarkEvaluatedBatch(run.wave, run.values, threshold);
      run.state->Propagate();
      ++run.steps;
      run.wave.clear();
    }
  }

  std::vector<Result<SearchOutcome>> out;
  out.reserve(slots.size());
  for (std::optional<Result<SearchOutcome>>& slot : slots) {
    out.push_back(std::move(*slot));
  }
  return out;
}

}  // namespace hos::search
