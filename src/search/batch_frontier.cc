#include "src/search/batch_frontier.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/timer.h"
#include "src/service/thread_pool.h"

namespace hos::search {
namespace {

/// Work-budget gate (SearchExecution::max_od_evaluations), consulted before
/// a level batch is materialised: spending so far plus the level's
/// undecided count must fit the budget, so a runaway query fails fast
/// instead of allocating (or evaluating) an astronomically large wave.
Status CheckSearchBudget(const SearchExecution& exec, const OdEvaluator& od,
                         uint64_t evals_at_start, int level,
                         uint64_t level_count) {
  if (exec.max_od_evaluations == 0) return Status::OK();
  const uint64_t spent = od.num_evaluations() - evals_at_start;
  if (spent + level_count <= exec.max_od_evaluations) return Status::OK();
  const uint64_t left =
      exec.max_od_evaluations > spent ? exec.max_od_evaluations - spent : 0;
  return Status::ResourceExhausted(
      "search work budget exceeded: level " + std::to_string(level) +
      " holds " + std::to_string(level_count) +
      " undecided subspaces, but only " + std::to_string(left) + " of the " +
      std::to_string(exec.max_od_evaluations) +
      " budgeted OD evaluations remain (raise "
      "SearchExecution::max_od_evaluations, use a band-pruning-friendly "
      "strategy, or reduce dimensionality)");
}

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
  // The round in flight: the level being evaluated and its scratch.
  int level = 0;
  std::vector<uint64_t> wave;
  std::vector<double> values;
  std::vector<uint8_t> resolved;
};

/// Assembles a point's SearchOutcome once its lattice is fully decided.
SearchOutcome AssembleOutcome(const PointRun& run, double threshold,
                              const Timer& timer) {
  const lattice::LatticeStore& state = *run.state;
  assert(state.AllDecided());
  const int d = state.num_dims();
  SearchOutcome outcome;
  outcome.num_dims = d;
  outcome.threshold = threshold;
  outcome.evaluated_outliers = state.evaluated_outlier_list();
  outcome.minimal_outlying_subspaces = state.minimal_outlier_seeds();
  outcome.outlier_fraction.assign(d + 1, 0.0);
  for (int m = 1; m <= d; ++m) {
    outcome.outlier_fraction[m] =
        static_cast<double>(state.OutliersAtLevel(m)) /
        static_cast<double>(Binomial(d, m));
    outcome.counters.pruned_upward += state.InferredOutliers(m);
    outcome.counters.pruned_downward += state.InferredNonOutliers(m);
  }
  outcome.counters.od_evaluations = run.od->num_evaluations() - run.od_before;
  outcome.counters.distance_computations =
      run.od->engine().distance_computations() - run.dist_before;
  outcome.counters.steps = run.steps;
  outcome.counters.bound_decisions = run.bound_decisions;
  outcome.counters.elapsed_seconds = timer.ElapsedSeconds();
  return outcome;
}

const char* StrategyName(LevelOrder order) {
  switch (order) {
    case LevelOrder::kTotalSavingFactor:
      return "dynamic";
    case LevelOrder::kBottomUp:
      return "bottom-up";
    case LevelOrder::kTopDown:
      return "top-down";
  }
  return "dynamic";
}

/// Calls fn(i) for every i in [0, count). Without a pool (or with fewer
/// than two items) it runs on the calling thread in index order; with one,
/// the indices are cut into deterministic chunks (~4 per worker, so a
/// straggling chunk rebalances) drained by at most the pool's width of
/// tasks. Which task runs which chunk is timing-dependent, so fn(i) must
/// write only state owned by index i. Blocks until every call returned.
template <typename Fn>
void ForEachIndex(service::ThreadPool* pool, size_t count, const Fn& fn) {
  const size_t width =
      pool == nullptr ? 1 : static_cast<size_t>(pool->num_threads());
  if (width <= 1 || count < 2) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const size_t chunk =
      std::max<size_t>(1, (count + width * 4 - 1) / (width * 4));
  const size_t num_chunks = (count + chunk - 1) / chunk;
  std::atomic<size_t> next_chunk{0};
  auto drain_chunks = [&]() {
    for (size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
         c < num_chunks;
         c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      for (size_t i = c * chunk; i < std::min(c * chunk + chunk, count); ++i) {
        fn(i);
      }
    }
  };
  const size_t num_tasks = std::min(width, num_chunks);
  std::vector<std::future<void>> done;
  done.reserve(num_tasks);
  // Submission must not unwind while earlier tasks still reference this
  // frame; on failure, drain what was queued before rethrowing.
  try {
    for (size_t t = 0; t < num_tasks; ++t) {
      done.push_back(pool->SubmitWithResult(drain_chunks));
    }
  } catch (...) {
    next_chunk.store(num_chunks, std::memory_order_relaxed);
    for (std::future<void>& f : done) f.wait();
    throw;
  }
  // wait() everything before get(): get() can rethrow, and unwinding while
  // other workers still write into the caller's slots would be a
  // use-after-free.
  for (std::future<void>& f : done) f.wait();
  for (std::future<void>& f : done) f.get();
}

}  // namespace

BatchFrontierRunner::BatchFrontierRunner(int num_dims,
                                         const lattice::PruningPriors* priors,
                                         LevelOrder order)
    : num_dims_(num_dims), priors_(priors), order_(order) {
  // Out-of-range dimensionalities fail every point in Run, before any
  // level is scored.
  if (order_ == LevelOrder::kTotalSavingFactor && num_dims >= 1 &&
      num_dims <= lattice::kMaxLatticeDims) {
    saving_factors_.emplace(num_dims);
  }
}

int BatchFrontierRunner::NextLevel(const lattice::LatticeStore& state) const {
  switch (order_) {
    case LevelOrder::kTotalSavingFactor:
      return saving_factors_->BestLevel(*priors_, state);
    case LevelOrder::kBottomUp:
      for (int m = 1; m <= num_dims_; ++m) {
        if (state.UndecidedCount(m) > 0) return m;
      }
      return 0;
    case LevelOrder::kTopDown:
      for (int m = num_dims_; m >= 1; --m) {
        if (state.UndecidedCount(m) > 0) return m;
      }
      return 0;
  }
  return 0;
}

std::vector<Result<SearchOutcome>> BatchFrontierRunner::Run(
    std::span<OdEvaluator* const> ods, double threshold,
    const SearchExecution& exec) const {
  if (order_ == LevelOrder::kTotalSavingFactor &&
      priors_->num_dims() != num_dims_) {
    // Mis-sized priors would index out of bounds in TotalSavingFactor;
    // fail every point loudly instead (priors come from callers' learning
    // reports, so the mismatch is an input error).
    const Status bad = Status::InvalidArgument(
        "pruning priors cover " + std::to_string(priors_->num_dims()) +
        " dimensions but the search runs over " + std::to_string(num_dims_));
    return std::vector<Result<SearchOutcome>>(ods.size(), bad);
  }
  const filter::DensityBoundFilter* filter =
      exec.filter_mode == filter::FilterMode::kOff ? nullptr : exec.filter;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::QueryTracer* const tracer = exec.tracer;

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
      tracer, StrategyName(order_), exec.trace_parent,
      tracer != nullptr && ods.size() > 1
          ? "points=" + std::to_string(ods.size())
          : std::string());

  // Round scratch, reused across rounds. `open` holds one entry per
  // (point, wave slot) the memo and the density filter left open, in
  // (point, slot) order; after the store probe it keeps only the store's
  // misses, sorted by (mask, point), so the points needing the same
  // subspace form one contiguous group. Mask order gives the engine, the
  // tracer and the store writes a deterministic order (OD values are
  // order-independent regardless).
  struct OpenEval {
    uint64_t mask;
    size_t q;
    size_t slot;
  };
  /// One fused kNN pass: the points [begin, end) of `open` / `queries` /
  /// `fresh` that need `mask`.
  struct KnnPass {
    uint64_t mask;
    size_t begin;
    size_t end;
  };
  std::vector<OpenEval> open;
  std::vector<SharedOdStore::OdKey> probe_keys;
  std::vector<double> probe_values;
  std::vector<uint8_t> probe_found;
  std::vector<KnnPass> passes;
  std::vector<knn::BatchPointQuery> queries;
  std::vector<double> fresh;
  std::vector<SharedOdStore::OdKey> store_keys;
  std::vector<double> store_values;

  while (true) {
    // Phase 1 — per point: pick the level its walk evaluates next (0
    // retires the point) and apply the budget gate.
    int level_lo = num_dims_ + 1;
    int level_hi = 0;
    for (size_t q = 0; q < runs.size(); ++q) {
      PointRun& run = runs[q];
      if (run.done) continue;
      run.level = NextLevel(*run.state);
      if (run.level == 0) {
        slots[q] = AssembleOutcome(run, threshold, timer);
      } else if (Status budget =
                     CheckSearchBudget(exec, *run.od, run.od_before, run.level,
                                       run.state->UndecidedCount(run.level));
                 !budget.ok()) {
        slots[q] = std::move(budget);
      } else {
        level_lo = std::min(level_lo, run.level);
        level_hi = std::max(level_hi, run.level);
        continue;
      }
      run.done = true;
      --live;
    }
    if (live == 0) break;

    std::string level_detail;
    if (tracer != nullptr) {
      level_detail = "m=" + std::to_string(level_lo);
      if (level_hi > level_lo) level_detail += ".." + std::to_string(level_hi);
      if (ods.size() > 1) level_detail += " points=" + std::to_string(live);
    }
    obs::ScopedSpan level_span(tracer, "level", strategy_span.id(),
                               std::move(level_detail));

    // Materialise each live point's wave and resolve what the memo and the
    // density filter can: memo first, then filter. Bound verdicts enter as
    // threshold sentinels, which the lattice — storing only `od >= T` —
    // treats exactly like the exact values.
    open.clear();
    for (size_t q = 0; q < runs.size(); ++q) {
      PointRun& run = runs[q];
      if (run.done) continue;
      run.wave.clear();
      run.state->ForEachUndecided(
          run.level, [&run](uint64_t mask) { run.wave.push_back(mask); });
      run.values.assign(run.wave.size(), 0.0);
      run.resolved.assign(run.wave.size(), 0);
      for (size_t i = 0; i < run.wave.size(); ++i) {
        const uint64_t mask = run.wave[i];
        double memoised;
        if (run.od->LookupLocal(mask, &memoised)) {
          // The memoised value, no counter movement.
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
    // open evaluation of the round, in (point, slot) order, then per
    // distinct mask ONE fused kNN pass for what the store did not answer,
    // then one multi-store write-back of everything computed. Each
    // (point, mask) still sees the sequential evaluator's store-probe →
    // kNN → store-write order, and no two masks share a store key, so
    // batching the probes and writes across masks changes no value and no
    // hit (only LRU recency, see the header). The fusion is where a block
    // recovers B-1 index traversals per coinciding subspace.
    SharedOdStore* store = nullptr;
    probe_keys.clear();
    for (const OpenEval& e : open) {
      const OdEvaluator& od = *runs[e.q].od;
      if (!od.shareable()) continue;
      assert(store == nullptr || store == od.shared_store());
      store = od.shared_store();
      probe_keys.push_back({*od.exclude(), e.mask});
    }
    if (!probe_keys.empty()) {
      probe_values.assign(probe_keys.size(), 0.0);
      probe_found.assign(probe_keys.size(), 0);
      store->LookupMulti(probe_keys, probe_values, probe_found);
      // Deposit the hits and keep only the misses in `open` (the probe
      // keys follow the shareable entries of `open` in order).
      size_t keep = 0;
      size_t key = 0;
      for (const OpenEval& e : open) {
        PointRun& run = runs[e.q];
        if (run.od->shareable() && probe_found[key++]) {
          const double od = probe_values[key - 1];
          run.od->Deposit(e.mask, od,
                          OdEvaluator::ValueSource::kSharedStoreHit);
          run.values[e.slot] = od;
          run.resolved[e.slot] = 1;
        } else {
          open[keep++] = e;
        }
      }
      open.resize(keep);
    }

    // Group the misses into one pass per distinct mask (a contiguous run
    // of `open` once sorted). A fully warm round has nothing to sort.
    std::sort(open.begin(), open.end(),
              [](const OpenEval& a, const OpenEval& b) {
                return a.mask != b.mask ? a.mask < b.mask : a.q < b.q;
              });
    passes.clear();
    queries.clear();
    for (size_t begin = 0, end; begin < open.size(); begin = end) {
      const uint64_t mask = open[begin].mask;
      end = begin + 1;
      while (end < open.size() && open[end].mask == mask) ++end;
      passes.push_back({mask, begin, end});
    }
    for (const OpenEval& e : open) {
      const OdEvaluator& od = *runs[e.q].od;
      queries.push_back({od.point(), od.exclude()});
    }

    // The passes, fanned out across the pool when there is one: each
    // writes only its own slots of `fresh`.
    fresh.assign(open.size(), 0.0);
    ForEachIndex(exec.pool, passes.size(), [&](size_t p) {
      const KnnPass& pass = passes[p];
      const OdEvaluator& lead = *runs[open[pass.begin].q].od;
      const size_t points = pass.end - pass.begin;
      std::string detail;
      if (tracer != nullptr) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "mask=0x%" PRIx64, pass.mask);
        detail = buf;
        if (points > 1) detail += " points=" + std::to_string(points);
      }
      obs::ScopedSpan knn_span(tracer, "knn", level_span.id(),
                               std::move(detail));
      const std::vector<double> values = knn::OutlyingDegreeBatch(
          lead.engine(),
          std::span<const knn::BatchPointQuery>(queries).subspan(pass.begin,
                                                                 points),
          Subspace(pass.mask), lead.k());
      std::copy(values.begin(), values.end(), fresh.begin() + pass.begin);
    });

    // Merge, calling thread, in mask order.
    store_keys.clear();
    store_values.clear();
    for (size_t c = 0; c < open.size(); ++c) {
      const OpenEval& e = open[c];
      PointRun& run = runs[e.q];
      run.od->Deposit(e.mask, fresh[c], OdEvaluator::ValueSource::kComputed);
      run.values[e.slot] = fresh[c];
      run.resolved[e.slot] = 1;
      if (run.od->shareable()) {
        store_keys.push_back({*run.od->exclude(), e.mask});
        store_values.push_back(fresh[c]);
      }
    }
    if (!store_keys.empty()) store->StoreMulti(store_keys, store_values);

    // Phase 3 — per live point: merge the wave in original mask
    // order (the exact seed sequence a sequential walk produces), then
    // propagate both pruning directions.
    for (PointRun& run : runs) {
      if (run.done) continue;
      assert(std::all_of(run.resolved.begin(), run.resolved.end(),
                         [](uint8_t r) { return r != 0; }));
      run.state->MarkEvaluatedBatch(run.wave, run.values, threshold);
      run.state->Propagate();
      ++run.steps;
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
