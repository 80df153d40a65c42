// HosMiner streaming-ingest API: Append semantics (normalization with the
// Build-time fit, version bookkeeping, lazy learner invalidation), the
// two-phase rebuild, and error paths.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/core/hos_miner.h"
#include "src/data/generator.h"

namespace hos::core {
namespace {

constexpr int kDims = 5;

HosMiner BuildMiner(uint64_t seed, size_t rows = 120,
                    data::NormalizationKind normalization =
                        data::NormalizationKind::kMinMax) {
  Rng rng(seed);
  data::Dataset dataset = data::GenerateUniform(rows, kDims, &rng);
  HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  config.normalization = normalization;
  auto miner = HosMiner::Build(std::move(dataset), config);
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

TEST(StreamingMinerTest, AppendReturnsMonotonicVersionsAndMarksLearning) {
  HosMiner miner = BuildMiner(1);
  const uint64_t v0 = miner.version();
  EXPECT_FALSE(miner.learning_stale());
  EXPECT_EQ(miner.delta_rows(), 0u);

  auto v1 = miner.Append({{0.5, 0.5, 0.5, 0.5, 0.5}});
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, v0 + 1);
  EXPECT_TRUE(miner.learning_stale());
  EXPECT_EQ(miner.delta_rows(), 1u);

  auto v2 = miner.Append({{0.1, 0.2, 0.3, 0.4, 0.5},
                          {0.9, 0.8, 0.7, 0.6, 0.5}});
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, v0 + 3);
  EXPECT_EQ(miner.delta_rows(), 3u);
  EXPECT_GT(miner.delta_fraction(), 0.0);

  // Empty append: version unchanged, no-op.
  auto v3 = miner.Append({});
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v3, *v2);

  miner.RefreshLearning();
  EXPECT_FALSE(miner.learning_stale());
}

TEST(StreamingMinerTest, AppendNormalizesWithTheBuildTimeFit) {
  // Min-max normalization fitted at Build maps the raw range seen then to
  // [0, 1]; an appended raw point at the fitted maximum must land at 1.0
  // in every dimension — i.e. the transform is the *old* fit, not a refit.
  Rng rng(2);
  data::Dataset dataset(kDims);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> row(kDims);
    for (double& cell : row) cell = rng.Uniform(0.0, 2.0);
    dataset.Append(row);
  }
  std::vector<double> raw_max(kDims);
  for (int d = 0; d < kDims; ++d) {
    raw_max[d] = data::ComputeColumnStats(dataset)[d].max;
  }
  HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  auto miner = HosMiner::Build(std::move(dataset), config);
  ASSERT_TRUE(miner.ok());

  ASSERT_TRUE(miner->Append({raw_max}).ok());
  const data::PointId appended =
      static_cast<data::PointId>(miner->dataset().size() - 1);
  for (int d = 0; d < kDims; ++d) {
    EXPECT_DOUBLE_EQ(miner->dataset().At(appended, d), 1.0) << "dim " << d;
  }
}

TEST(StreamingMinerTest, AppendValidatesRowWidth) {
  HosMiner miner = BuildMiner(3);
  const uint64_t v0 = miner.version();
  auto bad = miner.Append({{1.0, 2.0}});
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(miner.version(), v0);
  EXPECT_FALSE(miner.learning_stale());
}

TEST(StreamingMinerTest, AppendRejectsNonFiniteRows) {
  HosMiner miner = BuildMiner(3);
  const uint64_t v0 = miner.version();
  const size_t rows = miner.dataset().size();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    // The bad row comes second: nothing of the batch may land.
    const std::vector<std::vector<double>> batch = {
        {0.5, 0.5, 0.5, 0.5, 0.5}, {0.5, 0.5, bad, 0.5, 0.5}};
    auto prepared = miner.PrepareAppend(batch);
    EXPECT_TRUE(prepared.status().IsInvalidArgument()) << bad;
    auto appended = miner.Append(batch);
    EXPECT_TRUE(appended.status().IsInvalidArgument()) << bad;
    EXPECT_NE(appended.status().message().find("appended row 1"),
              std::string::npos)
        << appended.status().message();
  }
  EXPECT_EQ(miner.version(), v0);
  EXPECT_EQ(miner.dataset().size(), rows);
  EXPECT_FALSE(miner.learning_stale());
}

TEST(StreamingMinerTest, QueriesReportTheVersionTheyRanAt) {
  HosMiner miner = BuildMiner(4);
  auto before = miner.Query(0);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->dataset_version, miner.version());

  ASSERT_TRUE(miner.Append({{0.5, 0.5, 0.5, 0.5, 0.5}}).ok());
  auto after = miner.Query(0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->dataset_version, miner.version());
  EXPECT_EQ(after->dataset_version, before->dataset_version + 1);

  // Appended rows are themselves queryable immediately.
  auto delta_query =
      miner.Query(static_cast<data::PointId>(miner.dataset().size() - 1));
  EXPECT_TRUE(delta_query.ok());
}

TEST(StreamingMinerTest, TwoPhaseRebuildFoldsTheDelta) {
  HosMiner miner = BuildMiner(5);
  ASSERT_TRUE(miner.Append({{0.4, 0.4, 0.4, 0.4, 0.4},
                            {0.6, 0.6, 0.6, 0.6, 0.6}}).ok());
  EXPECT_EQ(miner.delta_rows(), 2u);
  EXPECT_LT(miner.xtree()->base_rows(), miner.dataset().size());

  auto artifacts = miner.PrepareRebuild();
  ASSERT_TRUE(artifacts.ok());
  EXPECT_EQ(artifacts->rows, miner.dataset().size());

  // Queries between prepare and commit still work (prepare is read-only).
  ASSERT_TRUE(miner.Query(0).ok());

  miner.CommitRebuild(std::move(artifacts).value());
  EXPECT_EQ(miner.delta_rows(), 0u);
  EXPECT_EQ(miner.xtree()->base_rows(), miner.dataset().size());
  ASSERT_TRUE(miner.Query(0).ok());
}

TEST(StreamingMinerTest, RebuildKeepsThresholdAndAnswers) {
  HosMiner miner = BuildMiner(6);
  const double threshold = miner.threshold();
  ASSERT_TRUE(miner.Append({{0.3, 0.7, 0.3, 0.7, 0.3}}).ok());

  auto before = miner.Query(7);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(miner.Rebuild().ok());
  EXPECT_EQ(miner.threshold(), threshold);

  auto after = miner.Query(7);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->outcome.minimal_outlying_subspaces,
            after->outcome.minimal_outlying_subspaces);
  EXPECT_EQ(before->outcome.outlier_fraction, after->outcome.outlier_fraction);
}

TEST(StreamingMinerTest, RebuildWorksForEveryIndexKind) {
  for (IndexKind index : {IndexKind::kLinearScan, IndexKind::kXTree}) {
    SCOPED_TRACE(static_cast<int>(index));
    Rng rng(7);
    data::Dataset dataset = data::GenerateUniform(80, kDims, &rng);
    HosMinerConfig config;
    config.k = 3;
    config.threshold = 0.8;
    config.index = index;
    auto miner = HosMiner::Build(std::move(dataset), config);
    ASSERT_TRUE(miner.ok());
    ASSERT_TRUE(miner->Append({{0.2, 0.4, 0.6, 0.8, 1.0}}).ok());
    ASSERT_TRUE(miner->Rebuild().ok());
    EXPECT_EQ(miner->delta_rows(), 0u);
    EXPECT_TRUE(miner->Query(0).ok());
    if (index == IndexKind::kXTree) {
      ASSERT_NE(miner->xtree(), nullptr);
      EXPECT_TRUE(miner->xtree()->CheckInvariants().ok());
    }
  }
}

TEST(StreamingMinerTest, DeleteEvictFeedTheStalenessClock) {
  HosMiner miner = BuildMiner(8, /*rows=*/100);
  EXPECT_EQ(miner.priors_version(), miner.version());
  EXPECT_DOUBLE_EQ(miner.learning_staleness(), 0.0);
  EXPECT_EQ(miner.live_rows(), 100u);

  const std::vector<data::PointId> doomed = {4, 9};
  auto version = miner.Delete(doomed);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_TRUE(miner.learning_stale());
  EXPECT_EQ(miner.live_rows(), 98u);
  // 2 mutations over 98 live rows.
  EXPECT_DOUBLE_EQ(miner.learning_staleness(), 2.0 / 98.0);

  EXPECT_EQ(miner.EvictOldest(3), 3u);
  EXPECT_EQ(miner.live_rows(), 95u);
  EXPECT_DOUBLE_EQ(miner.learning_staleness(), 5.0 / 95.0);
  EXPECT_GT(miner.churn_fraction(), 0.0);

  auto dead = miner.Query(4);
  EXPECT_TRUE(dead.status().IsNotFound()) << dead.status().ToString();
  auto live = miner.Query(50);
  EXPECT_TRUE(live.ok()) << live.status().ToString();
}

TEST(StreamingMinerTest, TwoPhaseLearningCommitsAtomicallyAndResetsClock) {
  HosMiner miner = BuildMiner(9, /*rows=*/100);
  ASSERT_TRUE(miner.Delete(std::vector<data::PointId>{0, 1, 2}).ok());
  ASSERT_TRUE(miner.Append({{0.5, 0.5, 0.5, 0.5, 0.5}}).ok());
  ASSERT_TRUE(miner.learning_stale());
  const uint64_t priors_v0 = miner.priors_version();

  // Prepare is read-only: queries keep answering with the old priors and
  // the staleness clock keeps ticking.
  HosMiner::LearningArtifacts artifacts = miner.PrepareLearning();
  EXPECT_EQ(artifacts.version, miner.version());
  ASSERT_TRUE(miner.Query(50).ok());
  EXPECT_TRUE(miner.learning_stale());
  EXPECT_EQ(miner.priors_version(), priors_v0);

  auto before = miner.Query(60);
  ASSERT_TRUE(before.ok());

  miner.CommitLearning(std::move(artifacts));
  EXPECT_FALSE(miner.learning_stale());
  EXPECT_GT(miner.priors_version(), priors_v0);
  EXPECT_DOUBLE_EQ(miner.learning_staleness(), 0.0);

  // Priors only steer the search order — never the answer set.
  auto after = miner.Query(60);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->outcome.minimal_outlying_subspaces,
            after->outcome.minimal_outlying_subspaces);

  // The refreshed sample contains live rows only.
  for (data::PointId id : miner.learning_report().sample_ids) {
    EXPECT_TRUE(miner.dataset().IsLive(id)) << "sampled dead row " << id;
  }
}

TEST(StreamingMinerTest, RebuildFoldsTombstonesAndReclaimsChunks) {
  // Enough rows that the first storage chunk can become wholly dead.
  HosMiner miner = BuildMiner(10, /*rows=*/600,
                              data::NormalizationKind::kNone);
  EXPECT_EQ(miner.EvictOldest(data::Dataset::kChunkRows),
            data::Dataset::kChunkRows);
  EXPECT_GT(miner.dataset().unsealed_tombstones(), 0u);

  ASSERT_TRUE(miner.Rebuild().ok());
  EXPECT_EQ(miner.dataset().unsealed_tombstones(), 0u);
  EXPECT_DOUBLE_EQ(miner.churn_fraction(), 0.0);
  // The wholly dead first chunk was reclaimed at commit.
  EXPECT_LT(miner.dataset().allocated_chunks(),
            (600 + data::Dataset::kChunkRows - 1) / data::Dataset::kChunkRows);

  // Evicted rows stay NotFound after the physical fold; survivors answer.
  EXPECT_TRUE(miner.Query(0).status().IsNotFound());
  EXPECT_TRUE(
      miner.Query(static_cast<data::PointId>(data::Dataset::kChunkRows)).ok());
}

// A window slid below k+1 live rows leaves an OD summed over fewer than k
// neighbours, which is no OD at all: every query entry point must refuse
// with FailedPrecondition instead of answering (k = 3 in BuildMiner).
TEST(StreamingMinerTest, QueryFailsOnceFewerThanKOtherRowsAreLive) {
  HosMiner miner = BuildMiner(14, /*rows=*/10);
  EXPECT_EQ(miner.EvictOldest(6), 6u);  // rows 6..9 live: 3 besides row 9
  ASSERT_TRUE(miner.Query(9).ok());

  EXPECT_EQ(miner.EvictOldest(1), 1u);  // rows 7..9: 2 besides row 9
  auto result = miner.Query(9);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition())
      << result.status().ToString();
  // Dead ids still report NotFound, not the window precondition.
  EXPECT_TRUE(miner.Query(0).status().IsNotFound());
}

TEST(StreamingMinerTest, QueryBatchFusedFailsEveryLiveSlotOnAShortWindow) {
  HosMiner miner = BuildMiner(15, /*rows=*/10);
  ASSERT_TRUE(
      miner.Delete(std::vector<data::PointId>{0, 1, 2, 3, 4, 5, 6}).ok());
  const std::vector<data::PointId> ids = {7, 0, 9};
  auto results = miner.QueryBatchFused(ids, QueryOptions{});
  ASSERT_EQ(results.size(), ids.size());
  EXPECT_TRUE(results[0].status().IsFailedPrecondition())
      << results[0].status().ToString();
  EXPECT_TRUE(results[1].status().IsNotFound())
      << results[1].status().ToString();
  EXPECT_TRUE(results[2].status().IsFailedPrecondition())
      << results[2].status().ToString();
}

TEST(StreamingMinerTest, QueryPointFailsOnceFewerThanKRowsAreLive) {
  HosMiner miner = BuildMiner(16, /*rows=*/10);
  const uint64_t before_append = miner.version();
  ASSERT_TRUE(miner
                  .Append({{0.1, 0.2, 0.3, 0.4, 0.5},
                           {0.5, 0.4, 0.3, 0.2, 0.1},
                           {0.3, 0.3, 0.3, 0.3, 0.3}})
                  .ok());
  const std::vector<double> probe = {0.2, 0.2, 0.2, 0.2, 0.2};
  // TTL-evict the build-time rows: the 3 appended rows stay, exactly k
  // neighbours for an external point.
  EXPECT_EQ(miner.EvictBefore(before_append + 1), 10u);
  ASSERT_TRUE(miner.QueryPoint(probe).ok());

  EXPECT_EQ(miner.EvictBefore(before_append + 2), 1u);
  auto result = miner.QueryPoint(probe);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition())
      << result.status().ToString();
}

}  // namespace
}  // namespace hos::core
