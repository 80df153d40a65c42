// DatasetView: a structure-of-arrays (column-major) mirror of a row-major
// data::Dataset — the storage layout of the batched distance kernel
// (src/kernels/batched_distance.h). A subspace-masked distance touches a few
// dimensions of many points, so laying each dimension out contiguously turns
// the kernel's inner loop into a unit-stride sweep the compiler vectorizes;
// the row-major Dataset would stride by num_dims() instead.
//
// A view is an independent snapshot: it stays valid (and consistent) if the
// source dataset later grows or is destroyed, but it does not track such
// changes. It records the dataset version it was built at
// (snapshot_version) and the dataset prefix it was taken over
// (covered_rows), which together with Dataset::last_overwrite_version
// decide exactly how a holder may keep using it (SplitBaseDelta below):
//
//  * rows only *appended* since the snapshot — the view still matches rows
//    [0, covered_rows()) bit-for-bit and serves as the *base*; the live
//    rows [covered_rows(), live.size()) are the *delta*, which the kNN
//    backends cover with an exact scalar scan merged into the kernel
//    results;
//  * any row *overwritten in place* (Dataset::Set) since the snapshot — the
//    base itself is suspect and the view must not serve at all; callers
//    fall back to their scalar paths (and, as before the versioned-ingest
//    refactor, the X-tree's MBRs are silently stale under Set, so a
//    dataset must not be overwritten while engines built over it are in
//    use; engines log this fallback when they detect it).

#ifndef HOS_KERNELS_DATASET_VIEW_H_
#define HOS_KERNELS_DATASET_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/data/dataset.h"

namespace hos::kernels {

class DatasetView {
 public:
  DatasetView() = default;

  /// Transposes `dataset` into column-major storage. O(n·d). Records the
  /// dataset's version so staleness is detected by mutation, not size.
  /// Position i holds row i, so positions are PointIds.
  static DatasetView Build(const data::Dataset& dataset);

  /// Column-major snapshot of the rows `order` names, in that order:
  /// position i holds row order[i] (dead rows zeroed). Positions are *not*
  /// PointIds — only a holder that keeps `order` may use the view (the
  /// X-tree's leaf-ordered snapshot). `covered_rows` is the dataset prefix
  /// the holder's structure covers, and so the base the view serves.
  static DatasetView BuildInOrder(const data::Dataset& dataset,
                                  std::span<const data::PointId> order,
                                  size_t covered_rows);

  size_t num_points() const { return num_points_; }
  int num_dims() const { return num_dims_; }
  bool empty() const { return num_points_ == 0; }

  /// Dataset::version() at the time the snapshot was taken.
  uint64_t snapshot_version() const { return snapshot_version_; }

  /// Rows [0, covered_rows()) form the base this snapshot serves;
  /// num_points() for a Build view.
  size_t covered_rows() const { return covered_rows_; }

  /// Contiguous values of one dimension across all points.
  const double* Column(int dim) const {
    return columns_.data() + static_cast<size_t>(dim) * num_points_;
  }

  double At(data::PointId id, int dim) const { return Column(dim)[id]; }

 private:
  /// Shared body of Build and BuildInOrder: position i holds row row_at(i).
  template <typename RowAt>
  static DatasetView Transpose(const data::Dataset& dataset, size_t count,
                               size_t covered_rows, RowAt row_at);

  size_t num_points_ = 0;
  int num_dims_ = 0;
  size_t covered_rows_ = 0;
  uint64_t snapshot_version_ = 0;
  std::vector<double> columns_;  // [dim * num_points + point]
};

/// Decomposition of a live dataset against a SoA snapshot: the rows the
/// snapshot still serves (the base) and where the un-snapshotted delta
/// starts. `base == nullptr` means the snapshot cannot serve at all (no
/// view, a foreign view, or an in-place overwrite since the snapshot) and
/// the caller must take its scalar path for every row.
struct BaseDeltaSplit {
  const DatasetView* base = nullptr;
  /// First live row not covered by `base`; rows [delta_begin, live.size())
  /// need the scalar delta scan. 0 when base is null.
  size_t delta_begin = 0;
};

/// The one staleness policy shared by every kNN backend (see the header
/// comment): the snapshot serves rows [0, view->covered_rows()) iff no
/// in-place overwrite happened after it was taken and the live dataset
/// still contains at least those rows.
inline BaseDeltaSplit SplitBaseDelta(
    const std::shared_ptr<const DatasetView>& view,
    const data::Dataset& live) {
  if (view == nullptr || view->covered_rows() > live.size() ||
      live.last_overwrite_version() > view->snapshot_version()) {
    return {};
  }
  return {view.get(), view->covered_rows()};
}

}  // namespace hos::kernels

#endif  // HOS_KERNELS_DATASET_VIEW_H_
