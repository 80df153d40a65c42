// Delta-scan helpers shared by every kNN backend's streaming-ingest path.
//
// An engine is built over an immutable base (the rows present when its SoA
// snapshot / index structure was created). Rows appended afterwards — the
// delta — are not in the structure, so exact answers come from the
// structure's result over the base merged with a scalar sweep over the
// delta rows. The sweep uses knn::SubspaceDistance, which the batched
// kernel is held bitwise-identical to (tests/kernels/), so a merged answer
// is bit-for-bit the answer a freshly rebuilt engine would produce: the
// per-row distances are the same doubles, and the k-smallest /
// within-radius selection over the union is order-insensitive under the
// backends' (distance, id) tie-breaking.

#ifndef HOS_KNN_DELTA_SCAN_H_
#define HOS_KNN_DELTA_SCAN_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/atomic_counter.h"
#include "src/common/subspace.h"
#include "src/data/dataset.h"
#include "src/kernels/batched_distance.h"
#include "src/knn/knn_engine.h"
#include "src/knn/metric.h"

namespace hos::knn {

/// Offers every *live* dataset row in [begin, end) except `exclude` into
/// the collector (scalar metric path); tombstoned rows are skipped before
/// their distance is computed. Returns the number of distance computations
/// performed, the unit the backends' counters report.
uint64_t DeltaScanTopK(const data::Dataset& dataset, MetricKind metric,
                       std::span<const double> point, const Subspace& subspace,
                       data::PointId begin, data::PointId end,
                       std::optional<data::PointId> exclude,
                       kernels::TopKCollector* collector);

/// Appends every live dataset row in [begin, end) within `radius`
/// (inclusive) of the query to `out` (unsorted; callers re-sort the merged
/// result). Returns the number of distance computations performed.
uint64_t DeltaScanRange(const data::Dataset& dataset, MetricKind metric,
                        std::span<const double> point,
                        const Subspace& subspace, data::PointId begin,
                        data::PointId end, double radius,
                        std::vector<Neighbor>* out);

/// Bookkeeping for the backends' *stale-snapshot* fallback — taken when the
/// SoA base itself is unusable (an in-place Dataset::Set since the
/// snapshot), not for the normal append-delta path. Bumps the engine's
/// fallback counter and logs a warning the first time an engine takes it,
/// because for the X-tree a mutated base also means silently stale index
/// geometry (its MBRs).
void NoteStaleFallback(RelaxedCounter* fallbacks, const char* engine_name);

/// The X-tree's kernel gate: returns the snapshot when it is a valid base
/// (no overwrite since it was taken) covering at least the `base_rows` the
/// structure holds, else null — counting and logging the fallback
/// (NoteStaleFallback) when a snapshot is attached but unusable.
const kernels::DatasetView* GateKernelView(
    const std::shared_ptr<const kernels::DatasetView>& view,
    const data::Dataset& dataset, size_t base_rows, RelaxedCounter* fallbacks,
    const char* engine_name);

}  // namespace hos::knn

#endif  // HOS_KNN_DELTA_SCAN_H_
