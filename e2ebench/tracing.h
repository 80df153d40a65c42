// Outside-in tracing for the end-to-end benchmark: spans recorded by the
// benchmark's own code around calls into each layer's public functions, and
// counts taken at the same boundaries. Nothing here reaches inside the
// engine: the kNN and OD-cache layers are observed through wrappers that
// implement the same public interfaces (knn::KnnEngine and
// search::SharedOdStore) and forward every call.
//
// Spans stay in memory (one SpanLog per thread, so recording takes no lock)
// until the run ends; LayerTimes then reduces them to per-name totals and
// self times, where a span's self time is its duration minus the part of
// that interval its child spans cover.

#ifndef HOS_E2EBENCH_TRACING_H_
#define HOS_E2EBENCH_TRACING_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/knn/knn_engine.h"
#include "src/service/od_cache.h"

namespace hos::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. `request` is the id of the client request the span
/// belongs to; `parent` indexes the enclosing span in the same SpanLog
/// (-1 for a root).
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Append-only span store owned by one thread.
class SpanLog {
 public:
  int32_t Open(const char* name, uint64_t request, int32_t parent) {
    spans_.push_back({name, request, parent, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t index) { spans_[index].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Where the wrappers below record: the calling thread's log and the span
/// their spans nest under. Unset (null log) means "do not record".
struct TraceContext {
  SpanLog* log = nullptr;
  uint64_t request = 0;
  int32_t parent = -1;
};
inline thread_local TraceContext t_trace;

/// RAII span under the calling thread's current TraceContext.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : log_(t_trace.log) {
    if (log_ != nullptr) {
      index_ = log_->Open(name, t_trace.request, t_trace.parent);
    }
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_ = -1;
};

/// Per-name totals over a set of span logs.
struct LayerTimes {
  std::map<std::string, double> total_ns;
  std::map<std::string, double> self_ns;

  void Add(const SpanLog& log) {
    const std::vector<Span>& spans = log.spans();
    std::vector<std::vector<int32_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
    }
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      covered.clear();
      for (int32_t c : children[i]) {
        const int64_t lo = std::max(s.start_ns, spans[c].start_ns);
        const int64_t hi = std::min(s.end_ns, spans[c].end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
      std::sort(covered.begin(), covered.end());
      int64_t union_ns = 0;
      int64_t reach = s.start_ns;
      for (const auto& [lo, hi] : covered) {
        const int64_t from = std::max(lo, reach);
        if (hi > from) union_ns += hi - from;
        reach = std::max(reach, hi);
      }
      const double duration = static_cast<double>(s.end_ns - s.start_ns);
      total_ns[s.name] += duration;
      self_ns[s.name] += duration - static_cast<double>(union_ns);
    }
  }

  double Total(const std::string& name) const { return Get(total_ns, name); }
  double Self(const std::string& name) const { return Get(self_ns, name); }

 private:
  static double Get(const std::map<std::string, double>& m,
                    const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  }
};

/// Counts taken at the kNN and OD-cache boundaries by one thread.
struct BoundaryCounts {
  uint64_t knn_calls = 0;
  uint64_t knn_points = 0;
  uint64_t store_lookups = 0;
  uint64_t store_hits = 0;

  void Add(const BoundaryCounts& o) {
    knn_calls += o.knn_calls;
    knn_points += o.knn_points;
    store_lookups += o.store_lookups;
    store_hits += o.store_hits;
  }
};

/// knn::KnnEngine that forwards every call to `inner`, recording a "knn"
/// span and the call / query-point counts around the search entry points.
/// Not shared between threads (counts are plain integers).
class TimedKnn final : public knn::KnnEngine {
 public:
  TimedKnn(const knn::KnnEngine& inner, BoundaryCounts* counts)
      : inner_(inner), counts_(counts) {}

  std::vector<knn::Neighbor> Search(const knn::KnnQuery& query) const override {
    ScopedSpan span("knn");
    ++counts_->knn_calls;
    ++counts_->knn_points;
    return inner_.Search(query);
  }
  std::vector<std::vector<knn::Neighbor>> SearchBatch(
      std::span<const knn::BatchPointQuery> points, const Subspace& subspace,
      int k) const override {
    ScopedSpan span("knn");
    ++counts_->knn_calls;
    counts_->knn_points += points.size();
    return inner_.SearchBatch(points, subspace, k);
  }
  std::vector<knn::Neighbor> RangeSearch(std::span<const double> point,
                                         const Subspace& subspace,
                                         double radius) const override {
    ScopedSpan span("knn");
    return inner_.RangeSearch(point, subspace, radius);
  }
  size_t size() const override { return inner_.size(); }
  knn::MetricKind metric() const override { return inner_.metric(); }
  uint64_t distance_computations() const override {
    return inner_.distance_computations();
  }
  knn::KnnBackendStats backend_stats() const override {
    return inner_.backend_stats();
  }

 private:
  const knn::KnnEngine& inner_;
  BoundaryCounts* counts_;
};

/// search::SharedOdStore over one version of an OdCache (exactly the
/// service's per-block binding), recording an "od_cache" span around every
/// call and counting lookups and hits.
class TimedStore final : public search::SharedOdStore {
 public:
  TimedStore(service::OdCache* cache, uint64_t version, BoundaryCounts* counts)
      : view_(cache, version), counts_(counts) {}

  bool Lookup(data::PointId id, uint64_t mask, double* od) override {
    ScopedSpan span("od_cache");
    ++counts_->store_lookups;
    const bool hit = view_.Lookup(id, mask, od);
    counts_->store_hits += hit ? 1 : 0;
    return hit;
  }
  void Store(data::PointId id, uint64_t mask, double od) override {
    ScopedSpan span("od_cache");
    view_.Store(id, mask, od);
  }
  void LookupMulti(std::span<const OdKey> keys, std::span<double> od,
                   std::span<uint8_t> found) override {
    ScopedSpan span("od_cache");
    view_.LookupMulti(keys, od, found);
    counts_->store_lookups += keys.size();
    for (uint8_t f : found) counts_->store_hits += f;
  }
  void StoreMulti(std::span<const OdKey> keys,
                  std::span<const double> od) override {
    ScopedSpan span("od_cache");
    view_.StoreMulti(keys, od);
  }

 private:
  service::OdCache::VersionView view_;
  BoundaryCounts* counts_;
};

}  // namespace hos::e2e

#endif  // HOS_E2EBENCH_TRACING_H_
