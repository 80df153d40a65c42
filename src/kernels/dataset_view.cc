#include "src/kernels/dataset_view.h"

namespace hos::kernels {

template <typename RowAt>
DatasetView DatasetView::Transpose(const data::Dataset& dataset, size_t count,
                                   size_t covered_rows, RowAt row_at) {
  DatasetView view;
  view.num_points_ = count;
  view.num_dims_ = dataset.num_dims();
  view.covered_rows_ = covered_rows;
  view.snapshot_version_ = dataset.version();
  // Dead rows are left zeroed — their storage chunk may already be
  // reclaimed — and are filtered out of query results at offer time, never
  // admitted into an answer.
  view.columns_.assign(count * static_cast<size_t>(view.num_dims_), 0.0);
  for (size_t i = 0; i < count; ++i) {
    const data::PointId id = row_at(i);
    if (!dataset.IsLive(id)) continue;
    const std::span<const double> row = dataset.Row(id);
    for (int dim = 0; dim < view.num_dims_; ++dim) {
      view.columns_[static_cast<size_t>(dim) * count + i] = row[dim];
    }
  }
  return view;
}

DatasetView DatasetView::Build(const data::Dataset& dataset) {
  // Positional layout over *all* row ids, live or dead: the linear scan
  // uses view positions as PointIds.
  return Transpose(dataset, dataset.size(), dataset.size(), [](size_t i) {
    return static_cast<data::PointId>(i);
  });
}

DatasetView DatasetView::BuildInOrder(const data::Dataset& dataset,
                                      std::span<const data::PointId> order,
                                      size_t covered_rows) {
  return Transpose(dataset, order.size(), covered_rows,
                   [order](size_t i) { return order[i]; });
}

}  // namespace hos::kernels
