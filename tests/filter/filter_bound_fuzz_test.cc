// Bound-soundness property fuzz: everything the pre-filter does rests on
// one invariant — for every (point, subspace, k),
//
//     Bounds().lower <= exact OD(p, s) <= Bounds().upper
//
// (and the same for each tier separately: the coarse histogram bounds when
// they apply, and the refined per-candidate bounds always). This suite
// hammers that invariant with random datasets, random subspace masks and
// random query rows, against the exact OD of every kNN backend — linear
// scan, X-tree and VA-file through the miner's engine, iDistance (full
// space only) at the engine level — and keeps hammering after streaming
// appends and tombstones have made the summary stale. A final case runs
// filtered queries from many threads at once over one shared miner; the
// filter is immutable after construction, so the TSan job must find
// nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/hos_miner.h"
#include "src/data/dataset.h"
#include "src/data/generator.h"
#include "src/filter/density_filter.h"
#include "src/filter/density_summary.h"
#include "src/index/idistance.h"
#include "src/knn/metric.h"
#include "tests/testutil/adversarial_gen.h"

namespace hos {
namespace {

constexpr int kDims = 5;
constexpr int kK = 3;

/// Asserts the full soundness sandwich for one (point, mask) pair.
void ExpectSound(const filter::DensityBoundFilter& filter,
                 const knn::KnnEngine& engine, const data::Dataset& dataset,
                 data::PointId id, uint64_t mask) {
  knn::KnnQuery query;
  query.point = dataset.Row(id);
  query.subspace = Subspace(mask);
  query.k = kK;
  query.exclude = id;
  const double exact = knn::OutlyingDegree(engine, query);

  const filter::OdBounds bounds = filter.Bounds(query.point, mask, kK, id);
  EXPECT_LE(bounds.lower, exact) << "mask " << mask << " id " << id;
  EXPECT_GE(bounds.upper, exact) << "mask " << mask << " id " << id;

  const filter::OdBounds refined =
      filter.RefinedBounds(query.point, mask, kK, id);
  EXPECT_LE(refined.lower, exact) << "refined, mask " << mask;
  EXPECT_GE(refined.upper, exact) << "refined, mask " << mask;

  const auto coarse = filter.CoarseBounds(query.point, mask, kK, id);
  if (coarse.has_value()) {
    EXPECT_LE(coarse->lower, exact) << "coarse, mask " << mask;
    EXPECT_GE(coarse->upper, exact) << "coarse, mask " << mask;
  }
}

class BoundSoundnessTest : public ::testing::TestWithParam<core::IndexKind> {};

TEST_P(BoundSoundnessTest, BoundsContainExactOdThroughStreamingMutations) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng data_rng(seed);
    data::Dataset dataset = data::GenerateUniform(90, kDims, &data_rng);

    core::HosMinerConfig config;
    config.k = kK;
    config.threshold = 0.9;
    config.index = GetParam();
    config.sample_size = 0;
    auto built = core::HosMiner::Build(std::move(dataset), config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    core::HosMiner miner = std::move(built).value();
    // A second filter over the miner's dataset that no commit hook ever
    // updates: it pins the rebuild-era semantics of a consumer mutating the
    // dataset directly — the summary goes stale under mutation and the
    // filter must stay sound anyway. The miner's own (synced) filter is
    // swept alongside it.
    const filter::DensityBoundFilter stale(
        miner.dataset(), config.metric,
        filter::DensitySummary::Build(miner.dataset(),
                                      config.va_file.bits_per_dim));

    const uint64_t lattice = (uint64_t{1} << kDims) - 1;
    Rng fuzz(seed * 7 + 1);
    auto sweep = [&](const char* phase) {
      SCOPED_TRACE(phase);
      for (int trial = 0; trial < 40; ++trial) {
        data::PointId id;
        do {
          id = static_cast<data::PointId>(
              fuzz.UniformInt(0, static_cast<int64_t>(miner.dataset().size()) -
                                     1));
        } while (!miner.dataset().IsLive(id));
        const uint64_t mask =
            static_cast<uint64_t>(fuzz.UniformInt(1, lattice));
        ExpectSound(*miner.density_filter(), miner.engine(), miner.dataset(),
                    id, mask);
        ExpectSound(stale, miner.engine(), miner.dataset(), id, mask);
      }
    };

    // Fresh build: summary covers everything.
    sweep("fresh");

    // Appends (unknown to the summary — folded in by exact distance) and
    // tombstones (known to the summary as live — its histograms go stale).
    std::vector<std::vector<double>> extra;
    Rng extra_rng(seed + 5);
    for (int i = 0; i < 12; ++i) {
      std::vector<double> row(kDims);
      for (double& cell : row) cell = extra_rng.Uniform();
      extra.push_back(std::move(row));
    }
    ASSERT_TRUE(miner.Append(extra).ok());
    ASSERT_TRUE(miner.Delete(std::vector<data::PointId>{2, 17, 40, 91}).ok());
    sweep("delta+tombstones");

    // Rebuild refreshes the summary over the folded rows.
    ASSERT_TRUE(miner.Rebuild().ok());
    sweep("rebuilt");
  }
}

// Sliding-window incremental-tally fuzz: with the miner's commit-path
// hooks keeping the tallies applied, the summary must stay synced() and the
// bounds sound
// through arbitrary interleavings of appends (both inside the frozen grid
// and outside it), deletes and evictions — with NO rebuild ever running.
// This is the soundness half of the incremental-density-tally contract:
// the bounds may only tighten as counts retire, never admit a violation
// of lower <= exact <= upper.
TEST_P(BoundSoundnessTest, IncrementalTalliesStaySoundThroughSlidingWindow) {
  for (uint64_t seed : {909u, 1010u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng data_rng(seed);
    data::Dataset dataset = data::GenerateUniform(90, kDims, &data_rng);

    core::HosMinerConfig config;
    config.k = kK;
    config.threshold = 0.9;
    config.index = GetParam();
    config.sample_size = 0;
    // Keep raw coordinates: appended rows outside [0, 1] then genuinely
    // miss the frozen grid, exercising the uncounted-row paths.
    config.normalization = data::NormalizationKind::kNone;
    auto built = core::HosMiner::Build(std::move(dataset), config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    core::HosMiner miner = std::move(built).value();

    const uint64_t lattice = (uint64_t{1} << kDims) - 1;
    Rng fuzz(seed * 11 + 3);
    auto sweep = [&](const std::string& phase) {
      SCOPED_TRACE(phase);
      for (int trial = 0; trial < 30; ++trial) {
        data::PointId id;
        do {
          id = static_cast<data::PointId>(
              fuzz.UniformInt(0, static_cast<int64_t>(miner.dataset().size()) -
                                     1));
        } while (!miner.dataset().IsLive(id));
        const uint64_t mask =
            static_cast<uint64_t>(fuzz.UniformInt(1, lattice));
        ExpectSound(*miner.density_filter(), miner.engine(), miner.dataset(),
                    id, mask);
      }
    };

    sweep("fresh");
    Rng mut(seed + 21);
    for (int round = 0; round < 4; ++round) {
      // Half the appends land inside the build-time grid (counted into the
      // tallies), half outside it (stay uncounted, exact-folded).
      std::vector<std::vector<double>> extra;
      for (int i = 0; i < 8; ++i) {
        std::vector<double> row(kDims);
        const double scale = i % 2 == 0 ? 1.0 : 1.6;
        for (double& cell : row) cell = mut.Uniform() * scale;
        extra.push_back(std::move(row));
      }
      ASSERT_TRUE(miner.Append(extra).ok());

      std::vector<data::PointId> doomed;
      while (doomed.size() < 3) {
        const auto id = static_cast<data::PointId>(mut.UniformInt(
            0, static_cast<int64_t>(miner.dataset().size()) - 1));
        if (miner.dataset().IsLive(id) &&
            std::find(doomed.begin(), doomed.end(), id) == doomed.end()) {
          doomed.push_back(id);
        }
      }
      ASSERT_TRUE(miner.Delete(doomed).ok());
      EXPECT_GT(miner.EvictOldest(4), 0u);

      // The hooks kept the tallies applied: no rebuild has run, yet the
      // summary still reports itself synced (never diverged).
      EXPECT_TRUE(miner.density_filter()->summary().synced(miner.dataset()))
          << "round " << round;
      sweep("round " + std::to_string(round));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BoundSoundnessTest,
                         ::testing::Values(core::IndexKind::kLinearScan,
                                           core::IndexKind::kXTree,
                                           core::IndexKind::kVaFile),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::IndexKind::kXTree: return "XTree";
                             case core::IndexKind::kVaFile: return "VaFile";
                             default: return "LinearScan";
                           }
                         });

// iDistance answers only full-space queries, so the invariant is checked at
// the full mask, for every live row, on the adversarial dataset (whose
// duplicates and near-threshold rings sit right where bound arithmetic is
// most fragile).
TEST(BoundSoundnessIDistanceTest, FullSpaceBoundsContainExactOd) {
  testutil::AdversarialSpec spec;
  spec.seed = 404;
  spec.num_dims = kDims;
  spec.k = kK;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);
  data::Dataset dataset = testutil::ToDataset(scenario);

  Rng build_rng(7);
  auto built = index::IDistance::Build(dataset, knn::MetricKind::kL2,
                                       index::IDistanceConfig{}, &build_rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const index::IDistance& idistance = built.value();
  ASSERT_TRUE(dataset.DeleteRows(scenario.tombstones).ok());

  filter::DensityBoundFilter filter(
      dataset, knn::MetricKind::kL2,
      filter::DensitySummary::Build(dataset, /*bits_per_dim=*/8));
  const uint64_t full = Subspace::Full(kDims).mask();

  for (data::PointId id = 0; id < static_cast<data::PointId>(dataset.size());
       ++id) {
    if (!dataset.IsLive(id)) continue;
    const auto neighbours = idistance.Knn(dataset.Row(id), kK, id);
    double exact = 0.0;
    for (const auto& n : neighbours) exact += n.distance;
    const filter::OdBounds bounds = filter.Bounds(dataset.Row(id), full, kK, id);
    EXPECT_LE(bounds.lower, exact) << "id " << id;
    EXPECT_GE(bounds.upper, exact) << "id " << id;
  }
}

// Soundness holds in every metric the exact path supports, not just L2 —
// the bound accumulators must mirror knn::SubspaceDistance exactly.
TEST(BoundSoundnessMetricTest, AllMetricsSound) {
  for (knn::MetricKind metric :
       {knn::MetricKind::kL1, knn::MetricKind::kL2, knn::MetricKind::kLInf}) {
    SCOPED_TRACE(static_cast<int>(metric));
    Rng data_rng(515);
    data::Dataset dataset = data::GenerateUniform(70, kDims, &data_rng);
    knn::LinearScanKnn engine(dataset, metric);
    filter::DensityBoundFilter filter(
        dataset, metric, filter::DensitySummary::Build(dataset, 4));

    const uint64_t lattice = (uint64_t{1} << kDims) - 1;
    Rng fuzz(616);
    for (int trial = 0; trial < 60; ++trial) {
      const auto id = static_cast<data::PointId>(
          fuzz.UniformInt(0, static_cast<int64_t>(dataset.size()) - 1));
      const uint64_t mask = static_cast<uint64_t>(fuzz.UniformInt(1, lattice));
      ExpectSound(filter, engine, dataset, id, mask);
    }
  }
}

// Many threads, one shared miner, half of them with the filter on: the
// filter is immutable after construction and every per-query structure is
// stack-local, so the TSan job (ctest -L filter) must stay silent and
// every thread must see answers identical to a sequential kOff run.
TEST(FilterConcurrencyTest, ConcurrentFilteredQueriesAreRaceFreeAndExact) {
  Rng data_rng(717);
  data::Dataset dataset = data::GenerateUniform(80, kDims, &data_rng);
  core::HosMinerConfig config;
  config.k = kK;
  config.threshold = 0.9;
  config.index = core::IndexKind::kVaFile;
  config.sample_size = 0;
  auto built = core::HosMiner::Build(std::move(dataset), config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const core::HosMiner miner = std::move(built).value();

  // Reference answers, computed single-threaded with the filter off.
  std::vector<std::vector<Subspace>> expected;
  for (data::PointId id = 0; id < 16; ++id) {
    auto off = miner.Query(id);
    ASSERT_TRUE(off.ok());
    expected.push_back(off->outcome.minimal_outlying_subspaces);
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&miner, &expected, t] {
      core::QueryOptions options;
      options.filter_mode = (t % 2 == 0) ? filter::FilterMode::kConservative
                                         : filter::FilterMode::kOff;
      for (int round = 0; round < 3; ++round) {
        for (data::PointId id = 0; id < 16; ++id) {
          auto result = miner.Query(id, options);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_EQ(result->outcome.minimal_outlying_subspaces, expected[id]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace
}  // namespace hos
