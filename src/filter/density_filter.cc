#include "src/filter/density_filter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "src/common/subspace.h"

namespace hos::filter {
namespace {

// Per-dimension contribution accumulator for the three metrics. The combine
// rule must match knn::SubspaceDistance exactly: L1 sums, L2 sums squares
// (sqrt at the end), LInf takes the max.
struct MetricAccum {
  knn::MetricKind kind;
  double value = 0.0;

  void Add(double per_dim) {
    switch (kind) {
      case knn::MetricKind::kL1:
        value += per_dim;
        break;
      case knn::MetricKind::kL2:
        value += per_dim * per_dim;
        break;
      case knn::MetricKind::kLInf:
        value = std::max(value, per_dim);
        break;
    }
  }

  double Finish() const {
    return kind == knn::MetricKind::kL2 ? std::sqrt(value) : value;
  }
};

// Distance from coordinate p to the near edge of cell c (0 when p lies
// inside the cell) and to the far edge.
inline void CellGapReach(double p, double lo, double width, int c, double* gap,
                         double* reach) {
  const double cell_lo = lo + c * width;
  const double cell_hi = cell_lo + width;
  if (p < cell_lo) {
    *gap = cell_lo - p;
    *reach = cell_hi - p;
  } else if (p > cell_hi) {
    *gap = p - cell_hi;
    *reach = p - cell_lo;
  } else {
    *gap = 0.0;
    *reach = std::max(p - cell_lo, cell_hi - p);
  }
}

// Sum of the k smallest values seen so far, maintained with a max-heap so a
// full pass over n candidates costs O(n log k).
class KSmallestSum {
 public:
  explicit KSmallestSum(size_t k) : k_(k) {}

  void Add(double v) {
    if (heap_.size() < k_) {
      heap_.push(v);
      sum_ += v;
    } else if (!heap_.empty() && v < heap_.top()) {
      sum_ += v - heap_.top();
      heap_.pop();
      heap_.push(v);
    }
  }

  double sum() const { return sum_; }

 private:
  size_t k_;
  std::priority_queue<double> heap_;
  double sum_ = 0.0;
};

OdBounds WidenForRounding(double lower, double upper) {
  // Bounds and the exact kernel round differently at ulp scale; widen so a
  // conservative decision can never flip an answer.
  OdBounds out;
  out.lower = std::max(0.0, lower * (1.0 - DensityBoundFilter::kBoundSlack));
  out.upper = upper * (1.0 + DensityBoundFilter::kBoundSlack) +
              std::numeric_limits<double>::min();
  return out;
}

}  // namespace

size_t DensityBoundFilter::EligibleCandidates(
    std::optional<data::PointId> exclude) const {
  size_t eligible = dataset_->live_size();
  if (exclude.has_value() && *exclude < dataset_->size() &&
      dataset_->IsLive(*exclude) && eligible > 0) {
    --eligible;
  }
  return eligible;
}

std::optional<OdBounds> DensityBoundFilter::CoarseBounds(
    std::span<const double> point, uint64_t mask, int k,
    std::optional<data::PointId> exclude) const {
  // With the incremental tallies applied (synced), the histograms describe
  // the current live set exactly — minus any uncounted out-of-grid appends,
  // handled below — so the tier keeps working as the window slides. Without
  // them, rows appended after the build have no cells and an unknown
  // candidate could sit at distance ~0, so neither coarse bound is valid
  // once a delta exists.
  const bool synced = summary_.synced(*dataset_);
  if (!synced && !summary_.covers(*dataset_)) return std::nullopt;
  const size_t eligible = EligibleCandidates(exclude);
  if (eligible == 0) return OdBounds{0.0, 0.0};

  // The query row's own histogram contribution must be discounted, or its
  // occupied cell pins every min-gap to 0. Only counted rows contribute a
  // count to remove.
  const bool discount_exclude =
      exclude.has_value() && *exclude < summary_.rows &&
      dataset_->IsLive(*exclude) && summary_.IsCounted(*exclude);

  // How many of the eligible candidates the histograms actually describe.
  // When the tallies are synced, any shortfall is exactly the uncounted
  // out-of-grid appends; when they are not, the legacy covers() gate above
  // already guaranteed every eligible candidate was counted at build time
  // (stale tombstone counts only loosen the bounds).
  const size_t counted_eligible =
      synced ? summary_.counted_live - (discount_exclude ? 1 : 0) : eligible;
  const bool all_counted = !synced || counted_eligible >= eligible;

  const Subspace subspace(mask);
  MetricAccum lower_acc{metric_};
  MetricAccum upper_acc{metric_};
  for (int dim = 0; dim < summary_.num_dims; ++dim) {
    if (!subspace.Contains(dim)) continue;
    const double lo = summary_.dim_lo[dim];
    const double width = summary_.dim_width[dim];
    const int own_cell =
        discount_exclude ? summary_.CellOf(*exclude, dim) : -1;
    double min_gap = std::numeric_limits<double>::infinity();
    double max_reach = 0.0;
    bool any_occupied = false;
    for (int c = 0; c < summary_.cells_per_dim; ++c) {
      uint32_t count = summary_.CountIn(dim, c);
      if (c == own_cell && count > 0) --count;
      if (count == 0) continue;
      any_occupied = true;
      double gap = 0.0;
      double reach = 0.0;
      CellGapReach(point[dim], lo, width, c, &gap, &reach);
      min_gap = std::min(min_gap, gap);
      max_reach = std::max(max_reach, reach);
    }
    // An empty occupied set with candidates present means either every
    // candidate is uncounted (all appends fell outside the grid) or the
    // summary disagrees with the dataset; refuse rather than emit an
    // unsound bound.
    if (!any_occupied) return std::nullopt;
    lower_acc.Add(min_gap);
    upper_acc.Add(max_reach);
  }

  const double n = static_cast<double>(std::min<size_t>(eligible, k));
  if (all_counted) {
    return WidenForRounding(n * lower_acc.Finish(), n * upper_acc.Finish());
  }
  // Uncounted live candidates (out-of-grid appends) exist. One could sit
  // arbitrarily close to the query, so the lower bound collapses to 0. The
  // upper bound survives iff the counted candidates alone can supply all n
  // neighbours: the k-smallest sum over a candidate subset caps the true
  // k-smallest sum over all candidates.
  if (counted_eligible < static_cast<size_t>(n)) return std::nullopt;
  return WidenForRounding(0.0, n * upper_acc.Finish());
}

OdBounds DensityBoundFilter::RefinedBounds(
    std::span<const double> point, uint64_t mask, int k,
    std::optional<data::PointId> exclude) const {
  const Subspace subspace(mask);
  const size_t covered = std::min(summary_.rows, dataset_->size());
  KSmallestSum lower_sum(static_cast<size_t>(k));
  KSmallestSum upper_sum(static_cast<size_t>(k));
  for (data::PointId id = 0; id < covered; ++id) {
    if (exclude.has_value() && id == *exclude) continue;
    if (!dataset_->IsLive(id)) continue;
    if (!summary_.IsCounted(id)) {
      // Live but uncounted: an append that fell outside the frozen grid, so
      // its cells are meaningless — fold it by exact distance instead.
      // (Rows dead at build time are uncounted too, but IsLive skips them.)
      const double dist =
          knn::SubspaceDistance(point, dataset_->Row(id), subspace, metric_);
      lower_sum.Add(dist);
      upper_sum.Add(dist);
      continue;
    }
    MetricAccum lower_acc{metric_};
    MetricAccum upper_acc{metric_};
    for (int dim = 0; dim < summary_.num_dims; ++dim) {
      if (!subspace.Contains(dim)) continue;
      double gap = 0.0;
      double reach = 0.0;
      CellGapReach(point[dim], summary_.dim_lo[dim], summary_.dim_width[dim],
                   summary_.CellOf(id, dim), &gap, &reach);
      lower_acc.Add(gap);
      upper_acc.Add(reach);
    }
    lower_sum.Add(lower_acc.Finish());
    upper_sum.Add(upper_acc.Finish());
  }
  // Delta rows have no cells — fold them in by exact distance, which keeps
  // both bounds sound while the streaming delta grows.
  for (data::PointId id = covered; id < dataset_->size(); ++id) {
    if (exclude.has_value() && id == *exclude) continue;
    if (!dataset_->IsLive(id)) continue;
    const double dist =
        knn::SubspaceDistance(point, dataset_->Row(id), subspace, metric_);
    lower_sum.Add(dist);
    upper_sum.Add(dist);
  }
  return WidenForRounding(lower_sum.sum(), upper_sum.sum());
}

OdBounds DensityBoundFilter::Bounds(std::span<const double> point,
                                    uint64_t mask, int k,
                                    std::optional<data::PointId> exclude) const {
  OdBounds refined = RefinedBounds(point, mask, k, exclude);
  if (const std::optional<OdBounds> coarse =
          CoarseBounds(point, mask, k, exclude)) {
    refined.lower = std::max(refined.lower, coarse->lower);
    refined.upper = std::min(refined.upper, coarse->upper);
  }
  return refined;
}

FilterDecision DensityBoundFilter::Decide(
    std::span<const double> point, uint64_t mask, int k,
    std::optional<data::PointId> exclude, double threshold) const {
  // Tier 1: histogram-only bounds decide the clear-cut subspaces in
  // O(|s| * cells) without touching per-row data. Tier 2, only when tier 1
  // is inconclusive: per-candidate bounds.
  std::optional<OdBounds> bounds = CoarseBounds(point, mask, k, exclude);
  if (!bounds.has_value() ||
      (bounds->lower < threshold && bounds->upper >= threshold)) {
    bounds = RefinedBounds(point, mask, k, exclude);
  }
  FilterDecision decision;
  if (bounds->lower >= threshold) {
    decision.verdict = FilterDecision::Verdict::kOutlier;
  } else if (bounds->upper < threshold) {
    decision.verdict = FilterDecision::Verdict::kInlier;
  }
  return decision;
}

}  // namespace hos::filter
