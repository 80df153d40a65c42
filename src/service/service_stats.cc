#include "src/service/service_stats.h"

#include <cstdio>

namespace hos::service {

ServiceStats::ServiceStats(obs::MetricsRegistry* registry)
    : queries_served_(registry->GetCounter("service_queries_served")),
      batches_served_(registry->GetCounter("service_batches_served")),
      rows_ingested_(registry->GetCounter("service_rows_ingested")),
      append_batches_(registry->GetCounter("service_append_batches")),
      rebuilds_completed_(
          registry->GetCounter("service_rebuilds_completed")),
      slow_queries_(registry->GetCounter("service_slow_queries")),
      od_evaluations_(registry->GetCounter("service_od_evaluations")),
      filter_bound_decisions_(
          registry->GetCounter("service_filter_bound_decisions")),
      rows_deleted_(registry->GetCounter("service_rows_deleted")),
      rows_evicted_(registry->GetCounter("service_rows_evicted")),
      evicted_query_rejects_(
          registry->GetCounter("service_evicted_query_rejects")),
      relearns_completed_(
          registry->GetCounter("service_relearns_completed")),
      last_rebuild_pause_seconds_(
          registry->GetGauge("service_last_rebuild_pause_seconds")),
      batched_queries_(registry->GetCounter("service_batched_queries")),
      batch_fused_evaluations_(
          registry->GetCounter("service_batch_fused_evaluations")),
      // Batch sizes are small integers (1 .. a few hundred), not latencies;
      // start the buckets at 1 so every realistic width gets its own bucket.
      batch_sizes_(registry->GetHistogram(
          "service_batch_size", {},
          obs::HistogramOptions{/*min_value=*/1.0, /*num_buckets=*/48})),
      latencies_(
          registry->GetHistogram("service_query_latency_seconds")) {}

void ServiceStats::RecordQuery(double latency_seconds,
                               uint64_t od_evaluations,
                               uint64_t bound_decisions) {
  queries_served_->Increment();
  latencies_->Record(latency_seconds);
  if (od_evaluations > 0) od_evaluations_->Increment(od_evaluations);
  if (bound_decisions > 0) {
    filter_bound_decisions_->Increment(bound_decisions);
  }
}

ServiceStatsSnapshot ServiceStats::Snapshot() const {
  ServiceStatsSnapshot snapshot;
  snapshot.queries_served = queries_served_->value();
  snapshot.batches_served = batches_served_->value();
  snapshot.rows_ingested = rows_ingested_->value();
  snapshot.append_batches = append_batches_->value();
  snapshot.rebuilds_completed = rebuilds_completed_->value();
  snapshot.slow_queries = slow_queries_->value();
  snapshot.od_evaluations = od_evaluations_->value();
  snapshot.filter_bound_decisions = filter_bound_decisions_->value();
  snapshot.rows_deleted = rows_deleted_->value();
  snapshot.rows_evicted = rows_evicted_->value();
  snapshot.evicted_query_rejects = evicted_query_rejects_->value();
  snapshot.relearns_completed = relearns_completed_->value();
  snapshot.last_rebuild_pause_seconds = last_rebuild_pause_seconds_->value();
  snapshot.batched_queries = batched_queries_->value();
  snapshot.batch_fused_evaluations = batch_fused_evaluations_->value();
  snapshot.p50_latency_seconds = latencies_->Percentile(0.50);
  snapshot.p90_latency_seconds = latencies_->Percentile(0.90);
  snapshot.p99_latency_seconds = latencies_->Percentile(0.99);
  snapshot.p999_latency_seconds = latencies_->Percentile(0.999);
  snapshot.max_latency_seconds = latencies_->max_recorded();
  return snapshot;
}

std::string ServiceStatsSnapshot::ToJson() const {
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"queries_served\": %llu, \"batches_served\": %llu, "
      "\"cache_hits\": %llu, \"cache_misses\": %llu, "
      "\"cache_hit_rate\": %.4f, \"p50_latency_seconds\": %.6g, "
      "\"p90_latency_seconds\": %.6g, \"p99_latency_seconds\": %.6g, "
      "\"p999_latency_seconds\": %.6g, \"max_latency_seconds\": %.6g, "
      "\"rows_ingested\": %llu, "
      "\"append_batches\": %llu, \"rebuilds_completed\": %llu, "
      "\"last_rebuild_pause_seconds\": %.6g, "
      "\"rows_deleted\": %llu, \"rows_evicted\": %llu, "
      "\"evicted_query_rejects\": %llu, \"relearns_completed\": %llu, "
      "\"dataset_version\": %llu, "
      "\"delta_rows\": %llu, \"delta_fraction\": %.4f, "
      "\"live_rows\": %llu, \"tombstone_rows\": %llu, "
      "\"churn_fraction\": %.4f, \"learning_staleness\": %.4f, "
      "\"od_evaluations\": %llu, \"filter_bound_decisions\": %llu, "
      "\"stale_fallbacks\": %llu, \"slow_queries\": %llu, "
      "\"batched_queries\": %llu, \"batch_fused_evaluations\": %llu}",
      static_cast<unsigned long long>(queries_served),
      static_cast<unsigned long long>(batches_served),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), cache_hit_rate,
      p50_latency_seconds, p90_latency_seconds, p99_latency_seconds,
      p999_latency_seconds, max_latency_seconds,
      static_cast<unsigned long long>(rows_ingested),
      static_cast<unsigned long long>(append_batches),
      static_cast<unsigned long long>(rebuilds_completed),
      last_rebuild_pause_seconds,
      static_cast<unsigned long long>(rows_deleted),
      static_cast<unsigned long long>(rows_evicted),
      static_cast<unsigned long long>(evicted_query_rejects),
      static_cast<unsigned long long>(relearns_completed),
      static_cast<unsigned long long>(dataset_version),
      static_cast<unsigned long long>(delta_rows), delta_fraction,
      static_cast<unsigned long long>(live_rows),
      static_cast<unsigned long long>(tombstone_rows), churn_fraction,
      learning_staleness,
      static_cast<unsigned long long>(od_evaluations),
      static_cast<unsigned long long>(filter_bound_decisions),
      static_cast<unsigned long long>(stale_fallbacks),
      static_cast<unsigned long long>(slow_queries),
      static_cast<unsigned long long>(batched_queries),
      static_cast<unsigned long long>(batch_fused_evaluations));
  return buffer;
}

}  // namespace hos::service
