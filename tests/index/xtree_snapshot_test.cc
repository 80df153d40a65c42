// The X-tree's leaf-ordered kernel snapshot through its whole lifecycle:
// at every step Knn, KnnBatch and RangeSearch must answer bitwise like a
// LinearScanKnn over the same dataset, and the backend counters must show
// which path served (kernel scans over the snapshot, the delta merge, the
// scalar row path once Insert/Remove dropped the snapshot, the counted
// stale fallback after an in-place overwrite). The kernel and the scalar
// leaf scans must also do the same counted work for the same probes, kNN
// and range queries alike.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/index/xtree.h"
#include "src/knn/knn_engine.h"
#include "src/knn/linear_scan.h"

namespace hos::index {
namespace {

using knn::BatchPointQuery;
using knn::KnnQuery;
using knn::MetricKind;
using knn::Neighbor;

constexpr int kDims = 5;
constexpr size_t kBase = 400;
constexpr size_t kAppended = 40;

Subspace RandomSubspace(Rng* rng) {
  uint64_t mask = 0;
  for (int dim = 0; dim < kDims; ++dim) {
    if (rng->UniformInt(0, 1) == 1) mask |= uint64_t{1} << dim;
  }
  if (mask == 0) mask = (uint64_t{1} << kDims) - 1;
  return Subspace(mask);
}

data::PointId RandomLiveRow(const data::Dataset& ds, Rng* rng) {
  data::PointId id;
  do {
    id = static_cast<data::PointId>(rng->UniformInt(0, ds.size() - 1));
  } while (!ds.IsLive(id));
  return id;
}

/// Every query form against a fresh linear scan over `ds`, bitwise.
void ExpectMatchesLinearScan(const XTree& tree, const data::Dataset& ds,
                             uint64_t seed, const std::string& stage) {
  SCOPED_TRACE(stage);
  const knn::LinearScanKnn oracle(ds, tree.metric());
  Rng rng(seed);
  for (int probe = 0; probe < 24; ++probe) {
    const Subspace subspace = RandomSubspace(&rng);
    const int k = 1 + static_cast<int>(rng.UniformInt(0, 8));
    const data::PointId self = RandomLiveRow(ds, &rng);
    KnnQuery query{ds.Row(self), subspace, k, self};
    if (probe % 3 == 0) query.exclude.reset();
    ASSERT_EQ(tree.Knn(query), oracle.Search(query)) << "Knn probe " << probe;

    std::vector<BatchPointQuery> batch;
    for (int b = 0; b < 11; ++b) {
      const data::PointId id = RandomLiveRow(ds, &rng);
      batch.push_back({ds.Row(id), id});
    }
    ASSERT_EQ(tree.KnnBatch(batch, subspace, k),
              oracle.SearchBatch(batch, subspace, k))
        << "KnnBatch probe " << probe;

    const std::vector<Neighbor> ranked = oracle.Search(query);
    const double radius = ranked.empty() ? 0.1 : ranked.back().distance;
    ASSERT_EQ(tree.RangeSearch(query.point, subspace, radius),
              oracle.RangeSearch(query.point, subspace, radius))
        << "RangeSearch probe " << probe;
  }
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants().ToString();
}

/// Answers and counter deltas of a fixed probe set: every probe through Knn
/// with and without its self-exclusion, then all of them as one KnnBatch.
struct ProbeRun {
  std::vector<std::vector<Neighbor>> answers;
  uint64_t node_accesses = 0;
  uint64_t distance_computations = 0;
  uint64_t kernel_scans = 0;
  uint64_t scalar_scans = 0;
};

ProbeRun RunFixedProbes(const XTree& tree, const data::Dataset& ds) {
  const std::vector<data::PointId> ids = {0, 42, 97, 222, 333, 419, 438};
  const std::vector<Subspace> subspaces = {
      Subspace(0b00011), Subspace(0b10101), Subspace::Full(kDims)};
  const knn::KnnBackendStats before = tree.backend_stats();
  ProbeRun run;
  for (const Subspace& subspace : subspaces) {
    for (int k : {1, 3, 7}) {
      std::vector<BatchPointQuery> batch;
      for (data::PointId id : ids) {
        EXPECT_TRUE(ds.IsLive(id)) << "probe " << id;
        run.answers.push_back(tree.Knn({ds.Row(id), subspace, k, id}));
        run.answers.push_back(tree.Knn({ds.Row(id), subspace, k, {}}));
        batch.push_back({ds.Row(id), id});
      }
      for (auto& answer : tree.KnnBatch(batch, subspace, k)) {
        run.answers.push_back(std::move(answer));
      }
    }
  }
  const knn::KnnBackendStats after = tree.backend_stats();
  run.node_accesses = after.node_accesses - before.node_accesses;
  run.distance_computations =
      after.distance_computations - before.distance_computations;
  run.kernel_scans = after.kernel_scans - before.kernel_scans;
  run.scalar_scans = after.scalar_scans - before.scalar_scans;
  return run;
}

class XTreeSnapshotTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(XTreeSnapshotTest, EveryStageMatchesTheLinearScan) {
  Rng rng(15002 + static_cast<int>(GetParam()));
  data::Dataset ds = data::GenerateUniform(kBase, kDims, &rng);
  auto built = XTree::BulkLoad(ds, GetParam());
  ASSERT_TRUE(built.ok());
  XTree& tree = built.value();

  // Fresh bulk load: the snapshot serves every leaf scan.
  knn::KnnBackendStats before = tree.backend_stats();
  ExpectMatchesLinearScan(tree, ds, 1, "after BulkLoad");
  knn::KnnBackendStats after = tree.backend_stats();
  EXPECT_GT(after.kernel_scans, before.kernel_scans);
  EXPECT_EQ(after.scalar_scans, before.scalar_scans);
  EXPECT_EQ(after.delta_merges, 0u);

  // Appended rows: the snapshot still serves the base, the delta scan
  // merges the rest.
  const data::Dataset extra =
      data::GenerateUniform(kAppended, kDims, &rng);
  for (data::PointId i = 0; i < extra.size(); ++i) ds.Append(extra.Row(i));
  before = tree.backend_stats();
  ExpectMatchesLinearScan(tree, ds, 2, "after appends");
  after = tree.backend_stats();
  EXPECT_GT(after.kernel_scans, before.kernel_scans);
  EXPECT_EQ(after.scalar_scans, before.scalar_scans);
  EXPECT_GT(after.delta_merges, before.delta_merges);

  // Tombstones in the base and in the delta: filtered at offer time.
  const std::vector<data::PointId> dead = {3, 77, 150, 151, 399, 401, 430};
  ASSERT_TRUE(ds.DeleteRows(dead).ok());
  before = tree.backend_stats();
  ExpectMatchesLinearScan(tree, ds, 3, "after tombstones");
  after = tree.backend_stats();
  EXPECT_GT(after.kernel_scans, before.kernel_scans);
  EXPECT_EQ(after.stale_fallbacks, 0u);

  // Hand-driven mutations drop the snapshot: appended rows move into the
  // tree, and re-inserted rows land in other leaves. The scalar row path
  // serves (and the flat child boxes must have followed every split).
  for (size_t id = kBase; id < kBase + kAppended; ++id) {
    ASSERT_TRUE(tree.Insert(static_cast<data::PointId>(id)).ok());
  }
  for (data::PointId id : {10u, 20u, 30u, 200u, 405u}) {
    ASSERT_TRUE(tree.Remove(id).ok());
    ASSERT_TRUE(tree.Insert(id).ok());
  }
  EXPECT_EQ(tree.base_rows(), ds.size());
  before = tree.backend_stats();
  ExpectMatchesLinearScan(tree, ds, 4, "after Insert/Remove");
  after = tree.backend_stats();
  EXPECT_EQ(after.kernel_scans, before.kernel_scans);
  EXPECT_GT(after.scalar_scans, before.scalar_scans);
  EXPECT_EQ(after.stale_fallbacks, 0u)
      << "a dropped snapshot is not a stale one";

  // A fresh snapshot over the new leaves restores the kernel path.
  tree.RefreshKernelView();
  before = tree.backend_stats();
  ExpectMatchesLinearScan(tree, ds, 5, "after RefreshKernelView");
  after = tree.backend_stats();
  EXPECT_GT(after.kernel_scans, before.kernel_scans);
  EXPECT_EQ(after.scalar_scans, before.scalar_scans);

  // The fixed probes on the kernel path, replayed below on the scalar one.
  const ProbeRun kernel_run = RunFixedProbes(tree, ds);
  EXPECT_GT(kernel_run.kernel_scans, 0u);
  EXPECT_EQ(kernel_run.scalar_scans, 0u);

  // An in-place overwrite makes the snapshot unusable: counted, and the
  // scalar row path answers. The value written is the row's own, so the
  // tree's boxes (not maintained under Set) still cover it.
  ds.Set(42, 1, ds.At(42, 1));
  before = tree.backend_stats();
  ExpectMatchesLinearScan(tree, ds, 6, "after Dataset::Set");
  after = tree.backend_stats();
  EXPECT_GT(after.stale_fallbacks, before.stale_fallbacks);
  EXPECT_GT(after.scalar_scans, before.scalar_scans);

  // Same geometry, other leaf scan: the same answers for the same counted
  // work, the excluded self row included on both paths.
  const ProbeRun scalar_run = RunFixedProbes(tree, ds);
  EXPECT_EQ(scalar_run.kernel_scans, 0u);
  EXPECT_EQ(scalar_run.scalar_scans, kernel_run.kernel_scans);
  EXPECT_EQ(scalar_run.answers, kernel_run.answers);
  EXPECT_EQ(scalar_run.node_accesses, kernel_run.node_accesses);
  EXPECT_EQ(scalar_run.distance_computations,
            kernel_run.distance_computations);
}

/// Hits and counter deltas of one fixed batch of range queries.
struct RangeRun {
  std::vector<std::vector<Neighbor>> hits;
  uint64_t node_accesses = 0;
  uint64_t distance_computations = 0;
  uint64_t kernel_scans = 0;
  uint64_t scalar_scans = 0;
};

RangeRun RunRangeQueries(const XTree& tree, const data::Dataset& ds) {
  Rng rng(6767);
  const knn::KnnBackendStats before = tree.backend_stats();
  RangeRun run;
  for (int probe = 0; probe < 67; ++probe) {
    const Subspace subspace = RandomSubspace(&rng);
    const data::PointId self = RandomLiveRow(ds, &rng);
    run.hits.push_back(tree.RangeSearch(ds.Row(self), subspace, 0.2));
  }
  const knn::KnnBackendStats after = tree.backend_stats();
  run.node_accesses = after.node_accesses - before.node_accesses;
  run.distance_computations =
      after.distance_computations - before.distance_computations;
  run.kernel_scans = after.kernel_scans - before.kernel_scans;
  run.scalar_scans = after.scalar_scans - before.scalar_scans;
  return run;
}

// RangeSearch counts every leaf position it examines, tombstoned rows
// included, on the kernel and on the scalar leaf scan alike.
TEST_P(XTreeSnapshotTest, RangeSearchCountsTombstonesOnBothLeafScans) {
  Rng rng(2000 + static_cast<int>(GetParam()));
  data::Dataset ds = data::GenerateUniform(2000, kDims, &rng);
  auto built = XTree::BulkLoad(ds, GetParam());
  ASSERT_TRUE(built.ok());
  const XTree& tree = built.value();
  std::vector<data::PointId> dead;
  for (data::PointId id = 2; id < ds.size(); id += 3) dead.push_back(id);
  ASSERT_TRUE(ds.DeleteRows(dead).ok());

  const RangeRun kernel_run = RunRangeQueries(tree, ds);
  EXPECT_GT(kernel_run.kernel_scans, 0u);
  EXPECT_EQ(kernel_run.scalar_scans, 0u);

  // An in-place overwrite with the row's own value: the snapshot goes
  // stale, the geometry does not change.
  ds.Set(1, 0, ds.At(1, 0));
  const RangeRun scalar_run = RunRangeQueries(tree, ds);
  EXPECT_EQ(scalar_run.kernel_scans, 0u);
  EXPECT_EQ(scalar_run.scalar_scans, kernel_run.kernel_scans);

  EXPECT_EQ(scalar_run.hits, kernel_run.hits);
  EXPECT_EQ(scalar_run.node_accesses, kernel_run.node_accesses);
  EXPECT_EQ(scalar_run.distance_computations,
            kernel_run.distance_computations);
}

INSTANTIATE_TEST_SUITE_P(Metrics, XTreeSnapshotTest,
                         ::testing::Values(MetricKind::kL1, MetricKind::kL2,
                                           MetricKind::kLInf));

}  // namespace
}  // namespace hos::index
