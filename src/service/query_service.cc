#include "src/service/query_service.h"

#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/obs/trace.h"

namespace hos::service {

QueryService::QueryService(core::HosMiner miner, QueryServiceConfig config)
    : miner_(std::move(miner)),
      config_(config),
      cache_(config.enable_od_cache ? std::make_unique<OdCache>(config.cache)
                                    : nullptr),
      stats_(&registry_),
      search_pool_(config.search_threads > 1
                       ? std::make_unique<ThreadPool>(config.search_threads)
                       : nullptr),
      rebuild_worker_(config.ingest.background_rebuild &&
                              (config.ingest.rebuild_delta_fraction > 0.0 ||
                               config.ingest.relearn_staleness_threshold >
                                   0.0)
                          ? std::make_unique<ThreadPool>(1)
                          : nullptr),
      pool_(config.num_threads) {
  // Seed the time → version history so EvictOlderThan can age out the
  // build-time rows too, not just post-construction appends.
  RecordVersionSample();
  RegisterMetricCallbacks();
  if (config_.observability.stats_log_period_seconds > 0.0) {
    stats_logger_ = std::thread([this] { StatsLoggerLoop(); });
  }
}

QueryService::~QueryService() {
  if (stats_logger_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(logger_mu_);
      logger_stop_ = true;
    }
    logger_cv_.notify_all();
    stats_logger_.join();
  }
}

void QueryService::StatsLoggerLoop() {
  const auto period = std::chrono::duration<double>(
      config_.observability.stats_log_period_seconds);
  std::unique_lock<std::mutex> lock(logger_mu_);
  while (true) {
    // wait_for returning true means logger_stop_ was set; spurious wakeups
    // re-wait for the remaining time via the predicate loop inside wait_for.
    if (logger_cv_.wait_for(lock, period, [this] { return logger_stop_; })) {
      return;
    }
    lock.unlock();
    // Emitted unlocked: both snapshots take the epoch reader lock.
    HOS_LOG(Info) << "service stats: " << Stats().ToJson();
    HOS_LOG(Info) << "service metrics: " << MetricsJson();
    lock.lock();
  }
}

void QueryService::RegisterMetricCallbacks() {
  if (cache_ != nullptr) {
    OdCache* cache = cache_.get();
    registry_.RegisterCallback(
        "od_cache_hits", {}, obs::MetricType::kCounter,
        [cache] { return static_cast<double>(cache->hits()); });
    registry_.RegisterCallback(
        "od_cache_misses", {}, obs::MetricType::kCounter,
        [cache] { return static_cast<double>(cache->misses()); });
    registry_.RegisterCallback(
        "od_cache_evictions", {}, obs::MetricType::kCounter,
        [cache] { return static_cast<double>(cache->evictions()); });
    registry_.RegisterCallback(
        "od_cache_size", {}, obs::MetricType::kGauge,
        [cache] { return static_cast<double>(cache->size()); });
    registry_.RegisterCallback("od_cache_hit_rate", {},
                               obs::MetricType::kGauge,
                               [cache] { return cache->hit_rate(); });
  }
  // Dataset gauges and engine counters read state that appends and rebuilds
  // mutate, so the closures take the epoch reader lock. Snapshots must
  // therefore never run under the writer side (see metrics() doc).
  registry_.RegisterCallback(
      "dataset_version", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return static_cast<double>(miner_.version());
      });
  registry_.RegisterCallback(
      "dataset_delta_rows", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return static_cast<double>(miner_.delta_rows());
      });
  registry_.RegisterCallback(
      "dataset_delta_fraction", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return miner_.delta_fraction();
      });
  registry_.RegisterCallback(
      "dataset_live_rows", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return static_cast<double>(miner_.live_rows());
      });
  registry_.RegisterCallback(
      "dataset_tombstone_rows", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return static_cast<double>(miner_.dataset().num_tombstones());
      });
  registry_.RegisterCallback(
      "dataset_churn_fraction", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return miner_.churn_fraction();
      });
  registry_.RegisterCallback(
      "learning_staleness", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return miner_.learning_staleness();
      });

  // Per-backend kNN counters, labelled by the backend that serves this
  // miner (fixed by config, so the label is stable across rebuilds even
  // though the engine object is not).
  const obs::Labels backend_labels = {
      {"backend", miner_.engine().backend_stats().backend}};
  struct Field {
    const char* name;
    uint64_t knn::KnnBackendStats::*member;
  };
  static constexpr Field kFields[] = {
      {"knn_distance_computations",
       &knn::KnnBackendStats::distance_computations},
      {"knn_node_accesses", &knn::KnnBackendStats::node_accesses},
      {"knn_kernel_scans", &knn::KnnBackendStats::kernel_scans},
      {"knn_scalar_scans", &knn::KnnBackendStats::scalar_scans},
      {"knn_delta_merges", &knn::KnnBackendStats::delta_merges},
      {"knn_stale_fallbacks", &knn::KnnBackendStats::stale_fallbacks},
  };
  for (const Field& field : kFields) {
    auto member = field.member;
    registry_.RegisterCallback(
        field.name, backend_labels, obs::MetricType::kCounter,
        [this, member] {
          std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
          return static_cast<double>(EngineStatsLocked().*member);
        });
  }
}

knn::KnnBackendStats QueryService::EngineStatsLocked() const {
  knn::KnnBackendStats stats = miner_.engine().backend_stats();
  stats.distance_computations += engine_offsets_.distance_computations;
  stats.node_accesses += engine_offsets_.node_accesses;
  stats.kernel_scans += engine_offsets_.kernel_scans;
  stats.scalar_scans += engine_offsets_.scalar_scans;
  stats.delta_merges += engine_offsets_.delta_merges;
  stats.stale_fallbacks += engine_offsets_.stale_fallbacks;
  return stats;
}

void QueryService::FoldEngineStatsLocked() {
  const knn::KnnBackendStats old = miner_.engine().backend_stats();
  engine_offsets_.distance_computations += old.distance_computations;
  engine_offsets_.node_accesses += old.node_accesses;
  engine_offsets_.kernel_scans += old.kernel_scans;
  engine_offsets_.scalar_scans += old.scalar_scans;
  engine_offsets_.delta_merges += old.delta_merges;
  engine_offsets_.stale_fallbacks += old.stale_fallbacks;
}

Result<core::QueryResult> QueryService::RunTimedQuery(data::PointId id) {
  const ObservabilityConfig& obs_config = config_.observability;
  const bool traced = obs_config.trace_queries ||
                      obs_config.slow_query_threshold_seconds > 0.0;
  obs::QueryTracer tracer;  // unused (and cheap) when tracing is off
  Timer timer;
  Result<core::QueryResult> result = Status::Internal("query did not run");
  {
    // The "service" root span covers the same window the latency histogram
    // measures: epoch-lock wait plus the whole search.
    obs::ScopedSpan service_span(traced ? &tracer : nullptr, "service", -1,
                                 traced ? "point=" + std::to_string(id)
                                        : std::string());
    // Reader side of the epoch lock: the query observes one committed
    // dataset state for its whole run, and the version it binds into the
    // cache view (and reports in the result) is that state's version.
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    OdCache::VersionView versioned_store(cache_.get(), miner_.version());
    core::QueryOptions options =
        MakeOptions(cache_ != nullptr ? &versioned_store : nullptr);
    if (traced) {
      options.tracer = &tracer;
      options.trace_parent = service_span.id();
    }
    result = miner_.Query(id, options);
  }
  const double latency = timer.ElapsedSeconds();
  if (result.ok()) {
    const search::SearchCounters& counters = result.value().outcome.counters;
    stats_.RecordQuery(latency, counters.od_evaluations,
                       counters.bound_decisions);
  } else {
    stats_.RecordQuery(latency, 0);
    if (result.status().IsNotFound()) {
      // The id was deleted / slid out of the window: a clean client-visible
      // rejection, counted separately from stale_fallbacks (which is an
      // internal snapshot degradation that still answers exactly).
      stats_.RecordEvictedReject();
    }
  }
  if (traced) {
    auto trace =
        std::make_shared<const obs::QueryTrace>(tracer.Finish());
    if (result.ok()) result.value().trace = trace;
    if (obs_config.slow_query_threshold_seconds > 0.0 &&
        latency >= obs_config.slow_query_threshold_seconds) {
      stats_.RecordSlowQuery();
      HOS_LOG(Warning) << "slow query: point=" << id
                       << " latency_seconds=" << latency
                       << " trace=" << trace->ToJson();
    }
  }
  return result;
}

Result<core::QueryResult> QueryService::Query(data::PointId id) {
  return RunTimedQuery(id);
}

std::future<Result<core::QueryResult>> QueryService::QueryAsync(
    data::PointId id) {
  return pool_.SubmitWithResult(
      [this, id]() { return RunTimedQuery(id); });
}

void QueryService::RunTimedBlock(
    std::span<const data::PointId> ids,
    std::vector<std::optional<Result<core::QueryResult>>>* slots,
    size_t base) {
  const ObservabilityConfig& obs_config = config_.observability;
  const bool traced = obs_config.trace_queries ||
                      obs_config.slow_query_threshold_seconds > 0.0;
  obs::QueryTracer tracer;  // unused (and cheap) when tracing is off
  Timer timer;
  std::vector<Result<core::QueryResult>> results;
  {
    // The "batch" root span covers the whole fused block, so the span
    // tree reads batch → search → batch-dynamic → wave → knn-batch.
    obs::ScopedSpan batch_span(
        traced ? &tracer : nullptr, "batch", -1,
        traced ? "points=" + std::to_string(ids.size()) : std::string());
    // One reader hold for the block: every point in it observes the same
    // committed dataset state and binds the same version into the cache
    // view — exactly what a per-point loop at a quiescent version does.
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    OdCache::VersionView versioned_store(cache_.get(), miner_.version());
    core::QueryOptions options =
        MakeOptions(cache_ != nullptr ? &versioned_store : nullptr);
    if (traced) {
      options.tracer = &tracer;
      options.trace_parent = batch_span.id();
    }
    results = miner_.QueryBatchFused(ids, options);
  }
  // Block latency, recorded once per point: the per-point share is not
  // separable on the fused path (monitoring data, like the work counters).
  const double latency = timer.ElapsedSeconds();
  std::shared_ptr<const obs::QueryTrace> trace;
  if (traced) {
    trace = std::make_shared<const obs::QueryTrace>(tracer.Finish());
  }
  uint64_t fused_evaluations = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    Result<core::QueryResult>& result = results[i];
    if (result.ok()) {
      const search::SearchCounters& counters =
          result.value().outcome.counters;
      fused_evaluations += counters.od_evaluations;
      stats_.RecordQuery(latency, counters.od_evaluations,
                         counters.bound_decisions);
      if (traced) result.value().trace = trace;
    } else {
      stats_.RecordQuery(latency, 0);
      if (result.status().IsNotFound()) stats_.RecordEvictedReject();
    }
    (*slots)[base + i] = std::move(result);
  }
  stats_.RecordFusedBatch(ids.size(), fused_evaluations);
  if (traced && obs_config.slow_query_threshold_seconds > 0.0 &&
      latency >= obs_config.slow_query_threshold_seconds) {
    stats_.RecordSlowQuery();
    HOS_LOG(Warning) << "slow batch: points=" << ids.size()
                     << " latency_seconds=" << latency
                     << " trace=" << trace->ToJson();
  }
}

Result<std::vector<core::QueryResult>> QueryService::QueryBatch(
    std::span<const data::PointId> ids) {
  stats_.RecordBatch();

  // One slot per id, written by whichever worker runs it; slot order (not
  // completion order) defines the output, so the batch is deterministic.
  std::vector<std::optional<Result<core::QueryResult>>> slots(ids.size());
  const size_t width = static_cast<size_t>(
      std::max(config_.batch_fusion_width, 0));
  {
    std::vector<std::future<void>> done;
    if (width > 1) {
      // Fused path: one pool task per block of `width` ids; each block's
      // lattice searches are co-scheduled so coinciding OD evaluations
      // share one engine pass (answers identical — see batch_frontier.h).
      done.reserve((ids.size() + width - 1) / width);
      for (size_t start = 0; start < ids.size(); start += width) {
        const size_t count = std::min(width, ids.size() - start);
        done.push_back(
            pool_.SubmitWithResult([this, ids, start, count, &slots]() {
              RunTimedBlock(ids.subspan(start, count), &slots, start);
            }));
      }
    } else {
      // Fusion disabled: the historical one-task-per-id path.
      done.reserve(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        const data::PointId id = ids[i];
        done.push_back(pool_.SubmitWithResult([this, id, &slots, i]() {
          slots[i] = RunTimedQuery(id);
        }));
      }
    }
    // Wait for every task before collecting: get() can rethrow a task's
    // exception, and unwinding with workers still writing into `slots`
    // would be a use-after-free. wait() never throws.
    for (std::future<void>& f : done) f.wait();
    for (std::future<void>& f : done) f.get();
  }

  std::vector<core::QueryResult> results;
  results.reserve(ids.size());
  for (std::optional<Result<core::QueryResult>>& slot : slots) {
    if (!slot->ok()) return slot->status();  // first error in id order
    results.push_back(std::move(slot->value()));
  }
  return results;
}

Result<uint64_t> QueryService::AppendBatch(
    const std::vector<std::vector<double>>& rows) {
  // Validation and per-row normalization are read-only against the served
  // state, so they run before the writer lock; the exclusive section is
  // just the row copy into the dataset.
  Result<std::vector<std::vector<double>>> prepared =
      miner_.PrepareAppend(rows);
  if (!prepared.ok()) return prepared.status();

  uint64_t version = 0;
  {
    // Writer side: the batch becomes visible to queries atomically.
    std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
    version = miner_.CommitAppend(std::move(prepared).value());
    stats_.RecordAppend(rows.size());
    // Row-count sliding window: evict the oldest live rows inside the
    // same commit, so no query ever observes an over-full window (the
    // version the batch reports is the post-eviction state).
    const size_t window = config_.ingest.window_max_rows;
    if (window > 0 && miner_.live_rows() > window) {
      stats_.RecordEvict(miner_.EvictOldest(miner_.live_rows() - window));
      version = miner_.version();
    }
    RecordVersionSample();
  }
  ScheduleRebuildIfNeeded();
  ScheduleRelearnIfNeeded();
  return version;
}

Result<uint64_t> QueryService::DeleteRows(
    std::span<const data::PointId> ids) {
  Result<uint64_t> version = Status::Internal("delete did not run");
  {
    // Writer side: the whole batch (all-or-nothing in the dataset) becomes
    // invisible to queries atomically.
    std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
    version = miner_.Delete(ids);
    if (version.ok()) stats_.RecordDelete(ids.size());
  }
  if (!version.ok()) return version.status();
  ScheduleRebuildIfNeeded();
  ScheduleRelearnIfNeeded();
  return version;
}

void QueryService::RecordVersionSample() {
  // Reads miner_.version() — callers hold the epoch writer lock (or are
  // the constructor, where nothing else runs yet).
  const uint64_t version = miner_.version();
  std::lock_guard<std::mutex> lock(history_mu_);
  version_history_.emplace_back(std::chrono::steady_clock::now(), version);
}

size_t QueryService::EvictOlderThan(double seconds) {
  const std::chrono::steady_clock::time_point horizon =
      std::chrono::steady_clock::now() -
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  uint64_t watermark = 0;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    // Samples are time-ordered; the last one at or before the horizon is
    // the newest version fully older than `seconds`.
    for (const auto& [when, version] : version_history_) {
      if (when > horizon) break;
      watermark = version;
      found = true;
    }
    // Already-consumed samples can never move a future watermark (versions
    // only grow), so drop all but the watermark sample itself.
    while (version_history_.size() > 1 &&
           version_history_.front().second < watermark) {
      version_history_.pop_front();
    }
  }
  if (!found) return 0;
  // Rows appended at version <= watermark existed at the horizon sample;
  // EvictBefore's bound is exclusive.
  return EvictBefore(watermark + 1);
}

size_t QueryService::EvictBefore(uint64_t version) {
  size_t evicted = 0;
  {
    std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
    evicted = miner_.EvictBefore(version);
    stats_.RecordEvict(evicted);
  }
  if (evicted > 0) {
    ScheduleRebuildIfNeeded();
    ScheduleRelearnIfNeeded();
  }
  return evicted;
}

bool QueryService::PolicyWantsRebuild() const {
  const IngestConfig& ingest = config_.ingest;
  // Churn counts both halves of the window's drift: appended rows the
  // sealed structures lack, and tombstoned rows they still contain.
  const size_t churn_rows =
      miner_.delta_rows() + miner_.dataset().unsealed_tombstones();
  return ingest.rebuild_delta_fraction > 0.0 &&
         churn_rows >= ingest.min_delta_rows &&
         miner_.churn_fraction() > ingest.rebuild_delta_fraction;
}

bool QueryService::PolicyWantsRelearn() const {
  const IngestConfig& ingest = config_.ingest;
  return ingest.relearn_staleness_threshold > 0.0 &&
         miner_.learning_stale() &&
         miner_.learning_staleness() >= ingest.relearn_staleness_threshold;
}

void QueryService::ScheduleRebuildIfNeeded() {
  {
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    if (!PolicyWantsRebuild()) return;
  }
  if (rebuild_scheduled_.exchange(true, std::memory_order_acq_rel)) {
    return;  // single-flight: a running rebuild re-checks when it is done
  }
  if (rebuild_worker_ != nullptr) {
    rebuild_worker_->Submit([this] { RunRebuild(); });
  } else {
    RunRebuild();
  }
}

void QueryService::ScheduleRelearnIfNeeded() {
  {
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    if (!PolicyWantsRelearn()) return;
  }
  if (relearn_scheduled_.exchange(true, std::memory_order_acq_rel)) {
    return;  // single-flight: a running relearn re-checks when it is done
  }
  if (rebuild_worker_ != nullptr) {
    rebuild_worker_->Submit([this] { RunRelearn(); });
  } else {
    RunRelearn();
  }
}

void QueryService::RunRelearn() {
  // Heavy phase — the sampling-based learner re-runs full lattice searches
  // over the live rows — under the reader lock, concurrently with queries.
  core::HosMiner::LearningArtifacts artifacts;
  {
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    artifacts = miner_.PrepareLearning();
  }
  {
    // O(1) pointer swap. Priors only steer search order, so queries
    // answered before and after the swap are identical; results for
    // already-committed versions never change.
    std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
    miner_.CommitLearning(std::move(artifacts));
  }
  stats_.RecordRelearn();
  relearn_scheduled_.store(false, std::memory_order_release);
  // A mutation may have slipped in after the prepare pinned its version
  // but before the flag cleared; its own schedule call saw the flag still
  // set. Close the race by re-checking (the commit reset the staleness
  // clock to the prepare-time version, so this only fires on real drift).
  ScheduleRelearnIfNeeded();
}

void QueryService::RunRebuild() {
  while (true) {
    // Heavy phase under the reader lock: queries keep running against the
    // current engine while the fresh snapshot and index are built. Appends
    // wait (they need the writer side), which also pins the row count the
    // artifacts cover.
    Result<core::HosMiner::RebuildArtifacts> artifacts =
        Status::Internal("rebuild did not run");
    {
      std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
      artifacts = miner_.PrepareRebuild();
    }
    if (!artifacts.ok()) {
      // Do not loop or re-arm on failure — that would spin on a
      // persistently failing prepare. The next append re-triggers.
      HOS_LOG(Warning) << "ingest rebuild failed (service keeps serving "
                          "via the delta scan): "
                       << artifacts.status().ToString();
      rebuild_scheduled_.store(false, std::memory_order_release);
      return;
    }
    double pause_seconds = 0.0;
    bool fold_again = false;
    {
      std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
      Timer pause;  // time only the held section — the pause others see
      // The commit swaps in a fresh engine whose work counters start at
      // zero; fold the outgoing engine's totals into the offsets first so
      // the exported per-backend series stay monotone across the swap.
      FoldEngineStatsLocked();
      miner_.CommitRebuild(std::move(artifacts).value());
      pause_seconds = pause.ElapsedSeconds();
      // Appends that committed between prepare and commit stayed in the
      // delta; fold them too if they already re-exceed the policy,
      // otherwise they would sit above threshold until the next append.
      fold_again = PolicyWantsRebuild();
    }
    stats_.RecordRebuild(pause_seconds);
    if (!fold_again) break;
  }
  rebuild_scheduled_.store(false, std::memory_order_release);
  // An append may have slipped in after the in-lock policy check but
  // before the flag cleared, and its own ScheduleRebuildIfNeeded would
  // have seen the flag still set. Close the race by re-checking.
  ScheduleRebuildIfNeeded();
}

void QueryService::WaitForRebuilds() {
  while (rebuild_scheduled_.load(std::memory_order_acquire) ||
         relearn_scheduled_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

ServiceStatsSnapshot QueryService::Stats() const {
  ServiceStatsSnapshot snapshot = stats_.Snapshot();
  if (cache_ != nullptr) {
    snapshot.cache_hits = cache_->hits();
    snapshot.cache_misses = cache_->misses();
    snapshot.cache_hit_rate = cache_->hit_rate();
  }
  {
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    snapshot.dataset_version = miner_.version();
    snapshot.delta_rows = miner_.delta_rows();
    snapshot.delta_fraction = miner_.delta_fraction();
    snapshot.live_rows = miner_.live_rows();
    snapshot.tombstone_rows = miner_.dataset().num_tombstones();
    snapshot.churn_fraction = miner_.churn_fraction();
    snapshot.learning_staleness = miner_.learning_staleness();
    snapshot.stale_fallbacks = EngineStatsLocked().stale_fallbacks;
  }
  return snapshot;
}

}  // namespace hos::service
