// Seeded mutation fuzz test for an X-tree HosMiner: random sequences of
// appends, deletes, evictions, rebuilds (one-shot, and two-phase with
// mutations between prepare and commit) and queries. After every query
// step each answer is checked against a linear-scan oracle built on the
// surviving rows only:
//  * the miner's kNN engine (Search, SearchBatch, RangeSearch) must return
//    the oracle's neighbours, ids mapped, with bitwise-equal distances;
//  * HosMiner::Query must return the oracle miner's outlying subspaces.
// Small nodes (max_entries 6) make deep trees with supernodes out of a few
// hundred rows; seeds alternate bulk load and insertion builds and cycle
// through the three metrics. Deterministic: every choice comes from the
// seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/hos_miner.h"
#include "src/data/dataset.h"
#include "src/data/generator.h"
#include "src/knn/knn_engine.h"
#include "src/knn/linear_scan.h"

namespace hos {
namespace {

using knn::BatchPointQuery;
using knn::KnnQuery;
using knn::Neighbor;

constexpr int kDims = 5;
constexpr int kK = 3;
constexpr size_t kMinLive = 12;
constexpr int kSteps = 120;

core::HosMinerConfig MinerConfig(core::IndexKind index,
                                 knn::MetricKind metric) {
  core::HosMinerConfig config;
  config.k = kK;
  config.threshold = 0.9;
  config.metric = metric;
  config.normalization = data::NormalizationKind::kNone;
  config.index = index;
  config.xtree.max_entries = 6;
  config.sample_size = 4;
  config.seed = 42;
  return config;
}

std::vector<std::vector<double>> RandomRows(size_t count, Rng* rng) {
  // Every fourth row copies an earlier coordinate pattern: duplicates make
  // distance ties, which the (distance, id) order must break identically.
  std::vector<std::vector<double>> rows(count, std::vector<double>(kDims));
  for (size_t i = 0; i < count; ++i) {
    for (int dim = 0; dim < kDims; ++dim) {
      rows[i][dim] = (i % 4 == 3) ? rows[i / 2][dim] : rng->Uniform();
    }
  }
  return rows;
}

Subspace RandomSubspace(Rng* rng) {
  return Subspace(static_cast<uint64_t>(rng->UniformInt(1, (1 << kDims) - 1)));
}

std::vector<data::PointId> LiveIds(const data::Dataset& ds) {
  std::vector<data::PointId> live;
  for (data::PointId id = 0; id < ds.size(); ++id) {
    if (ds.IsLive(id)) live.push_back(id);
  }
  return live;
}

/// `got` (miner ids) equals `want` (oracle ids = positions in `survivors`).
void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want,
                         const std::vector<data::PointId>& survivors,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, survivors[want[i].id]) << what << " rank " << i;
    ASSERT_EQ(got[i].distance, want[i].distance) << what << " rank " << i;
  }
}

std::vector<uint64_t> AnswerMasks(const core::QueryResult& result) {
  std::vector<uint64_t> masks;
  for (const Subspace& s : result.outlying_subspaces()) {
    masks.push_back(s.mask());
  }
  std::sort(masks.begin(), masks.end());
  return masks;
}

/// Checks a handful of random live rows against oracles on the survivors.
void CheckAgainstOracle(const core::HosMiner& miner, Rng* rng,
                        const std::string& step) {
  SCOPED_TRACE(step);
  const data::Dataset& ds = miner.dataset();
  const std::vector<data::PointId> survivors = LiveIds(ds);
  data::Dataset compact(kDims);
  for (data::PointId id : survivors) compact.Append(ds.Row(id));
  const knn::LinearScanKnn oracle(compact, miner.config().metric);
  const knn::KnnEngine& engine = miner.engine();

  const Subspace subspace = RandomSubspace(rng);
  std::vector<BatchPointQuery> batch, oracle_batch;
  for (int probe = 0; probe < 6; ++probe) {
    const size_t j = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(survivors.size()) - 1));
    const data::PointId id = survivors[j];
    const auto oracle_id = static_cast<data::PointId>(j);
    ExpectSameNeighbors(
        engine.Search({ds.Row(id), subspace, kK, id}),
        oracle.Search({compact.Row(oracle_id), subspace, kK, oracle_id}),
        survivors, "Search");
    const double radius = rng->Uniform(0.05, 0.4);
    ExpectSameNeighbors(
        engine.RangeSearch(ds.Row(id), subspace, radius),
        oracle.RangeSearch(compact.Row(oracle_id), subspace, radius),
        survivors, "RangeSearch");
    batch.push_back({ds.Row(id), id});
    oracle_batch.push_back({compact.Row(oracle_id), oracle_id});
  }
  const auto got = engine.SearchBatch(batch, subspace, kK);
  const auto want = oracle.SearchBatch(oracle_batch, subspace, kK);
  for (size_t b = 0; b < batch.size(); ++b) {
    ExpectSameNeighbors(got[b], want[b], survivors, "SearchBatch");
  }

  auto fresh = core::HosMiner::Build(
      std::move(compact),
      MinerConfig(core::IndexKind::kLinearScan, miner.config().metric));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (int probe = 0; probe < 2; ++probe) {
    const size_t j = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(survivors.size()) - 1));
    auto w = miner.Query(survivors[j]);
    auto f = fresh->Query(static_cast<data::PointId>(j));
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_EQ(AnswerMasks(*w), AnswerMasks(*f)) << "row " << survivors[j];
  }
}

void RunSequence(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  data::Dataset initial(kDims);
  for (const auto& row : RandomRows(150, &rng)) initial.Append(row);
  core::HosMinerConfig config = MinerConfig(
      core::IndexKind::kXTree, static_cast<knn::MetricKind>(seed % 3));
  config.bulk_load = seed % 2 == 0;
  auto built = core::HosMiner::Build(std::move(initial), config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  core::HosMiner miner = std::move(built).value();

  for (int step = 0; step < kSteps; ++step) {
    const std::string label = "step " + std::to_string(step);
    const size_t live = miner.dataset().live_size();
    switch (rng.UniformInt(0, 5)) {
      case 0: {  // append
        const auto rows =
            RandomRows(static_cast<size_t>(rng.UniformInt(1, 30)), &rng);
        ASSERT_TRUE(miner.Append(rows).ok()) << label;
        break;
      }
      case 1: {  // delete a few random live rows
        if (live <= kMinLive + 5) break;
        const std::vector<data::PointId> ids = LiveIds(miner.dataset());
        std::vector<data::PointId> doomed;
        for (size_t p : rng.SampleWithoutReplacement(ids.size(), 5)) {
          doomed.push_back(ids[p]);
        }
        ASSERT_TRUE(miner.Delete(doomed).ok()) << label;
        break;
      }
      case 2: {  // evict the oldest
        const auto n = static_cast<size_t>(rng.UniformInt(1, 20));
        if (live <= kMinLive + n) break;
        ASSERT_EQ(miner.EvictOldest(n), n) << label;
        break;
      }
      case 3:  // one-shot rebuild
        ASSERT_TRUE(miner.Rebuild().ok()) << label;
        break;
      case 4: {  // two-phase rebuild with mutations between the phases
        auto artifacts = miner.PrepareRebuild();
        ASSERT_TRUE(artifacts.ok()) << label;
        ASSERT_TRUE(miner.Append(RandomRows(3, &rng)).ok()) << label;
        if (live > kMinLive + 1) {
          ASSERT_EQ(miner.EvictOldest(1), 1u) << label;
        }
        miner.CommitRebuild(std::move(artifacts).value());
        break;
      }
      default:
        CheckAgainstOracle(miner, &rng, label);
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  CheckAgainstOracle(miner, &rng, "final");
}

TEST(MutationFuzzTest, XTreeMinerMatchesLinearScanOracleOnSurvivors) {
  for (uint64_t seed = 15101; seed < 15107; ++seed) {
    RunSequence(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hos
