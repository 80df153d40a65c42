// ServiceStats: per-service counters and latency percentiles for the
// query-serving path — queries served, batches, OD-cache hit rate, and
// p50/p90/p99/p999 latency from a log-bucketed histogram.
//
// Since the observability PR the counters live in an obs::MetricsRegistry:
// ServiceStats holds stable Counter*/Gauge*/Histogram* handles into the
// registry QueryService owns, so the same tallies appear both in the
// ServiceStatsSnapshot JSON (the stable /varz surface the tests pin) and in
// MetricsRegistry::ToJson()/ToPrometheusText() alongside every other
// subsystem's metrics. Recording stays lock-free: each handle's record path
// is one relaxed fetch_add, exactly what the old hand-rolled RelaxedCounter
// fields cost.

#ifndef HOS_SERVICE_SERVICE_STATS_H_
#define HOS_SERVICE_SERVICE_STATS_H_

#include <cstdint>
#include <string>

#include "src/obs/metrics.h"

namespace hos::service {

/// Thread-safe latency histogram with geometric buckets spanning
/// 1 microsecond .. ~1 hour (ratio 2^(1/4) per bucket, so percentile error
/// is bounded by ~19% of the value — plenty for p50/p99 monitoring). Now a
/// thin veneer over obs::Histogram, which fixed two edge cases the original
/// implementation had: values above the top bucket land in a dedicated
/// overflow bucket (with the exact max retained) instead of silently
/// clamping into the top bucket, and Percentile(0) reports the smallest
/// recorded value's bucket instead of unconditionally bucket 0.
class LatencyHistogram {
 public:
  LatencyHistogram() : hist_(obs::HistogramOptions{}) {}

  void Record(double seconds) { hist_.Record(seconds); }

  /// The q-quantile (q clamped to [0, 1]) as the upper bound of the bucket
  /// holding that rank; the exact maximum when the rank lands in the
  /// overflow bucket; 0 when nothing was recorded.
  double Percentile(double q) const { return hist_.Percentile(q); }

  uint64_t count() const { return hist_.count(); }
  /// Recordings above the top bucket's upper bound.
  uint64_t overflow_count() const { return hist_.overflow_count(); }
  /// Exact largest latency recorded; 0 when empty.
  double max_recorded() const { return hist_.max_recorded(); }

 private:
  obs::Histogram hist_;
};

/// Point-in-time view of a service's counters.
struct ServiceStatsSnapshot {
  uint64_t queries_served = 0;
  uint64_t batches_served = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  double p50_latency_seconds = 0.0;
  double p90_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  double p999_latency_seconds = 0.0;
  double max_latency_seconds = 0.0;

  // Streaming-ingest counters (zero on a service that never appends).
  uint64_t rows_ingested = 0;
  uint64_t append_batches = 0;
  uint64_t rebuilds_completed = 0;
  /// Exclusive-section time of the most recent rebuild commit — the pause
  /// writers and queries actually observe (the heavy prepare runs
  /// concurrently with queries).
  double last_rebuild_pause_seconds = 0.0;

  // Sliding-window counters (zero on a service that never deletes).
  /// Rows tombstoned through DeleteRows.
  uint64_t rows_deleted = 0;
  /// Rows tombstoned by eviction (EvictBefore / the window_max_rows
  /// policy).
  uint64_t rows_evicted = 0;
  /// Queries rejected with NotFound because the id was deleted/evicted —
  /// a *client*-visible miss, distinct from stale_fallbacks (an internal
  /// snapshot degradation that still answers exactly).
  uint64_t evicted_query_rejects = 0;
  /// Background learning refreshes committed (drift-triggered or manual).
  uint64_t relearns_completed = 0;

  /// Gauges sampled at snapshot time from the served miner.
  uint64_t dataset_version = 0;
  uint64_t delta_rows = 0;
  double delta_fraction = 0.0;
  uint64_t live_rows = 0;
  uint64_t tombstone_rows = 0;
  double churn_fraction = 0.0;
  double learning_staleness = 0.0;

  // Search-work aggregates summed over every served query's counters.
  uint64_t od_evaluations = 0;
  /// Subspaces decided by the density-bound pre-filter instead of an exact
  /// kNN call, summed over every served query (0 with FilterMode::kOff).
  uint64_t filter_bound_decisions = 0;
  /// kNN-backend queries forced fully scalar because the base snapshot was
  /// invalidated (folded across engine swaps, so monotone over the
  /// service's lifetime).
  uint64_t stale_fallbacks = 0;
  /// Queries over ObservabilityConfig::slow_query_threshold_seconds.
  uint64_t slow_queries = 0;

  // Fused multi-query execution counters (zero when batch fusion is
  // disabled or QueryBatch was never called).
  /// Queries served through the fused batch path (co-scheduled lattice
  /// searches sharing engine passes), as opposed to one-task-per-id.
  uint64_t batched_queries = 0;
  /// Fresh OD evaluations those queries spent through the fused
  /// multi-point engine passes.
  uint64_t batch_fused_evaluations = 0;

  std::string ToJson() const;
};

class ServiceStats {
 public:
  /// Handles are created in `registry`, which must outlive this object
  /// (QueryService declares its registry before its stats member).
  explicit ServiceStats(obs::MetricsRegistry* registry);
  ServiceStats(const ServiceStats&) = delete;
  ServiceStats& operator=(const ServiceStats&) = delete;

  /// Records one completed query: wall-clock latency plus the query's
  /// search-work counters (0 for failed queries).
  void RecordQuery(double latency_seconds, uint64_t od_evaluations,
                   uint64_t bound_decisions = 0);
  void RecordBatch() { batches_served_->Increment(); }
  void RecordSlowQuery() { slow_queries_->Increment(); }

  /// Records one committed append batch of `rows` rows.
  void RecordAppend(uint64_t rows) {
    append_batches_->Increment();
    rows_ingested_->Increment(rows);
  }

  /// Records one completed rebuild and its commit (exclusive-section)
  /// pause.
  void RecordRebuild(double pause_seconds) {
    rebuilds_completed_->Increment();
    last_rebuild_pause_seconds_->Set(pause_seconds);
  }

  /// Records one committed DeleteRows batch of `rows` rows.
  void RecordDelete(uint64_t rows) { rows_deleted_->Increment(rows); }

  /// Records `rows` rows tombstoned by eviction.
  void RecordEvict(uint64_t rows) {
    if (rows > 0) rows_evicted_->Increment(rows);
  }

  /// Records a query rejected because its id was deleted/evicted.
  void RecordEvictedReject() { evicted_query_rejects_->Increment(); }

  /// Records one committed learning refresh.
  void RecordRelearn() { relearns_completed_->Increment(); }

  /// Records one fused query block: how many points were co-scheduled
  /// (also fed to the service_batch_size histogram, so the registry shows
  /// the effective fusion-width distribution) and the fresh OD evaluations
  /// the block spent through the fused engine passes.
  void RecordFusedBatch(uint64_t points, uint64_t fused_evaluations) {
    batched_queries_->Increment(points);
    if (fused_evaluations > 0) {
      batch_fused_evaluations_->Increment(fused_evaluations);
    }
    batch_sizes_->Record(static_cast<double>(points));
  }

  uint64_t queries_served() const { return queries_served_->value(); }
  uint64_t batches_served() const { return batches_served_->value(); }
  uint64_t rows_ingested() const { return rows_ingested_->value(); }
  uint64_t append_batches() const { return append_batches_->value(); }
  uint64_t rebuilds_completed() const {
    return rebuilds_completed_->value();
  }
  uint64_t slow_queries() const { return slow_queries_->value(); }
  uint64_t rows_deleted() const { return rows_deleted_->value(); }
  uint64_t rows_evicted() const { return rows_evicted_->value(); }
  uint64_t evicted_query_rejects() const {
    return evicted_query_rejects_->value();
  }
  uint64_t relearns_completed() const {
    return relearns_completed_->value();
  }
  const obs::Histogram& latencies() const { return *latencies_; }

  /// Snapshot without cache numbers, miner gauges and engine fold-ins
  /// (QueryService fills those in from its OdCache, miner and engine
  /// offsets).
  ServiceStatsSnapshot Snapshot() const;

 private:
  obs::Counter* queries_served_;
  obs::Counter* batches_served_;
  obs::Counter* rows_ingested_;
  obs::Counter* append_batches_;
  obs::Counter* rebuilds_completed_;
  obs::Counter* slow_queries_;
  obs::Counter* od_evaluations_;
  obs::Counter* filter_bound_decisions_;
  obs::Counter* rows_deleted_;
  obs::Counter* rows_evicted_;
  obs::Counter* evicted_query_rejects_;
  obs::Counter* relearns_completed_;
  obs::Gauge* last_rebuild_pause_seconds_;
  obs::Counter* batched_queries_;
  obs::Counter* batch_fused_evaluations_;
  obs::Histogram* batch_sizes_;
  obs::Histogram* latencies_;
};

}  // namespace hos::service

#endif  // HOS_SERVICE_SERVICE_STATS_H_
