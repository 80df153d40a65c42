#include "src/knn/linear_scan.h"

#include <algorithm>

#include "src/kernels/batched_distance.h"
#include "src/knn/delta_scan.h"

namespace hos::knn {

LinearScanKnn::LinearScanKnn(const data::Dataset& dataset, MetricKind metric,
                             std::shared_ptr<const kernels::DatasetView> view)
    : dataset_(dataset), metric_(metric), view_(std::move(view)) {
  if (view_ == nullptr) {
    view_ = std::make_shared<const kernels::DatasetView>(
        kernels::DatasetView::Build(dataset));
  }
}

std::vector<Neighbor> LinearScanKnn::Search(const KnnQuery& query) const {
  const size_t k = static_cast<size_t>(std::max(query.k, 0));
  if (k == 0) return {};

  // With tombstones present the collector filters dead rows at admission;
  // without, the null filter keeps the hot path branch-free.
  kernels::TopKCollector collector(
      k, dataset_.num_tombstones() > 0 ? &dataset_ : nullptr);
  const kernels::BaseDeltaSplit split =
      kernels::SplitBaseDelta(view_, dataset_);
  if (split.base != nullptr) {
    ++kernel_scans_;
    if (split.delta_begin < dataset_.size()) ++delta_merges_;
    distance_count_ +=
        kernels::ScanAllForTopK(*split.base, query.point, query.subspace,
                                metric_, query.exclude, &collector);
    distance_count_ += DeltaScanTopK(
        dataset_, metric_, query.point, query.subspace,
        static_cast<data::PointId>(split.delta_begin),
        static_cast<data::PointId>(dataset_.size()), query.exclude,
        &collector);
    return collector.TakeSorted();
  }

  NoteStaleFallback(&stale_fallbacks_, "LinearScanKnn");
  ++scalar_scans_;
  for (data::PointId id = 0; id < dataset_.size(); ++id) {
    if (query.exclude && *query.exclude == id) continue;
    if (!dataset_.IsLive(id)) continue;
    double dist = SubspaceDistance(query.point, dataset_.Row(id),
                                   query.subspace, metric_);
    ++distance_count_;
    collector.Offer(id, dist);
  }
  return collector.TakeSorted();
}

std::vector<std::vector<Neighbor>> LinearScanKnn::SearchBatch(
    std::span<const BatchPointQuery> points, const Subspace& subspace,
    int k) const {
  const size_t kk = static_cast<size_t>(std::max(k, 0));
  if (kk == 0 || points.empty()) {
    return std::vector<std::vector<Neighbor>>(points.size());
  }
  if (points.size() == 1) {
    // One point (every single-query lattice walk): the single-point scan
    // skips the multi-point kernel's tile bookkeeping and batch buffers,
    // which cost ~10% per call at n=1.5k.
    std::vector<std::vector<Neighbor>> one;
    one.push_back(Search({points[0].point, subspace, k, points[0].exclude}));
    return one;
  }
  const kernels::BaseDeltaSplit split =
      kernels::SplitBaseDelta(view_, dataset_);
  if (split.base == nullptr) {
    // Stale base: the scalar per-point loop is the only exact path left.
    return KnnEngine::SearchBatch(points, subspace, k);
  }

  const data::Dataset* live_filter =
      dataset_.num_tombstones() > 0 ? &dataset_ : nullptr;
  std::vector<kernels::TopKCollector> collectors;
  collectors.reserve(points.size());
  std::vector<kernels::MultiPointQuery> queries;
  queries.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    collectors.emplace_back(kk, live_filter);
  }
  for (size_t i = 0; i < points.size(); ++i) {
    queries.push_back(
        {points[i].point.data(), points[i].exclude, &collectors[i]});
  }

  kernel_scans_ += points.size();
  if (split.delta_begin < dataset_.size()) delta_merges_ += points.size();
  distance_count_ +=
      kernels::ScanAllForTopKMulti(*split.base, queries, subspace, metric_);

  std::vector<std::vector<Neighbor>> results;
  results.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    distance_count_ += DeltaScanTopK(
        dataset_, metric_, points[i].point, subspace,
        static_cast<data::PointId>(split.delta_begin),
        static_cast<data::PointId>(dataset_.size()), points[i].exclude,
        &collectors[i]);
    results.push_back(collectors[i].TakeSorted());
  }
  return results;
}

std::vector<Neighbor> LinearScanKnn::RangeSearch(std::span<const double> point,
                                                 const Subspace& subspace,
                                                 double radius) const {
  std::vector<Neighbor> out;
  const bool filter_dead = dataset_.num_tombstones() > 0;
  const kernels::BaseDeltaSplit split =
      kernels::SplitBaseDelta(view_, dataset_);
  if (split.base != nullptr) {
    ++kernel_scans_;
    if (split.delta_begin < dataset_.size()) ++delta_merges_;
    const std::vector<int> dims = subspace.Dims();
    const size_t n = split.base->num_points();
    double dist[kernels::kDistanceBlock];
    for (size_t start = 0; start < n; start += kernels::kDistanceBlock) {
      const size_t m = std::min(kernels::kDistanceBlock, n - start);
      kernels::BatchedSubspaceDistanceRange(
          *split.base, point, dims, metric_,
          static_cast<data::PointId>(start), m, radius, {dist, m});
      distance_count_ += m;
      for (size_t j = 0; j < m; ++j) {
        if (dist[j] <= radius) {
          const auto id = static_cast<data::PointId>(start + j);
          if (filter_dead && !dataset_.IsLive(id)) continue;
          out.push_back({id, dist[j]});
        }
      }
    }
    distance_count_ += DeltaScanRange(
        dataset_, metric_, point, subspace,
        static_cast<data::PointId>(split.delta_begin),
        static_cast<data::PointId>(dataset_.size()), radius, &out);
  } else {
    NoteStaleFallback(&stale_fallbacks_, "LinearScanKnn");
    ++scalar_scans_;
    for (data::PointId id = 0; id < dataset_.size(); ++id) {
      if (filter_dead && !dataset_.IsLive(id)) continue;
      double dist =
          SubspaceDistance(point, dataset_.Row(id), subspace, metric_);
      ++distance_count_;
      if (dist <= radius) out.push_back({id, dist});
    }
  }
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  return out;
}

KnnBackendStats LinearScanKnn::backend_stats() const {
  KnnBackendStats stats;
  stats.backend = "linear_scan";
  stats.distance_computations = distance_count_;
  stats.kernel_scans = kernel_scans_;
  stats.scalar_scans = scalar_scans_;
  stats.delta_merges = delta_merges_;
  stats.stale_fallbacks = stale_fallbacks_;
  return stats;
}

}  // namespace hos::knn
