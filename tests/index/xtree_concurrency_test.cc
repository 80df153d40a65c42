// Concurrent read-only queries on one shared X-tree: threads issuing Knn,
// KnnBatch and RangeSearch at the same time must each get exactly the
// answers a sequential run produced. The tree's query path shares the
// leaf-ordered snapshot, the flat child boxes and the relaxed work
// counters across threads; under ThreadSanitizer (the `index` label runs
// in the TSan job) this test is the race check for all three.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/index/xtree.h"
#include "src/knn/knn_engine.h"

namespace hos::index {
namespace {

using knn::BatchPointQuery;
using knn::KnnQuery;
using knn::MetricKind;
using knn::Neighbor;

constexpr int kDims = 6;
constexpr int kThreads = 4;

/// One query of each form on the same subspace; answers recorded by Run.
struct Probe {
  KnnQuery knn;
  std::vector<BatchPointQuery> batch;
  double radius = 0.0;
};

struct Answers {
  std::vector<Neighbor> knn;
  std::vector<std::vector<Neighbor>> batch;
  std::vector<Neighbor> range;

  bool operator==(const Answers&) const = default;
};

Answers RunProbe(const XTree& tree, const Probe& probe) {
  return {tree.Knn(probe.knn),
          tree.KnnBatch(probe.batch, probe.knn.subspace, probe.knn.k),
          tree.RangeSearch(probe.knn.point, probe.knn.subspace, probe.radius)};
}

TEST(XTreeConcurrencyTest, ConcurrentQueriesMatchSequentialRun) {
  Rng rng(15003);
  data::Dataset ds = data::GenerateUniform(1500, kDims, &rng);
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  // A delta and some tombstones, so the merge and filter paths run too.
  const data::Dataset extra = data::GenerateUniform(60, kDims, &rng);
  for (data::PointId i = 0; i < extra.size(); ++i) ds.Append(extra.Row(i));
  ASSERT_TRUE(ds.DeleteRows(std::vector<data::PointId>{5, 600, 1501}).ok());

  std::vector<Probe> probes(48);
  for (Probe& probe : probes) {
    uint64_t mask = static_cast<uint64_t>(rng.UniformInt(1, (1 << kDims) - 1));
    const auto self = static_cast<data::PointId>(rng.UniformInt(6, 599));
    probe.knn = {ds.Row(self), Subspace(mask),
                 1 + static_cast<int>(rng.UniformInt(0, 9)), self};
    for (int b = 0; b < 9; ++b) {
      const auto id = static_cast<data::PointId>(rng.UniformInt(700, 1400));
      probe.batch.push_back({ds.Row(id), id});
    }
    probe.radius = rng.Uniform(0.05, 0.3);
  }
  std::vector<Answers> sequential;
  for (const Probe& probe : probes) {
    sequential.push_back(RunProbe(*tree, probe));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the probes from a different start so different
      // query forms overlap in time.
      for (size_t i = 0; i < probes.size(); ++i) {
        const size_t p = (i + t * probes.size() / kThreads) % probes.size();
        if (!(RunProbe(*tree, probes[p]) == sequential[p])) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace hos::index
