// Differential suite for fused multi-query execution: the proof that
// co-scheduling a block of lattice searches (search::BatchFrontierRunner,
// surfaced as core::HosMiner::QueryBatchFused / ScreenBatch) is an
// execution detail, not a semantic change. Every fused result is held to
// the sequential per-point loop field by field — identical minimal
// outlying subspaces, the order-sensitive evaluated_outliers list, bitwise
// outlier fractions and OD values, and identical lattice-derived work
// counters — across kNN backends {linear scan, X-tree, VA-file}, lattice
// stores {dense, sparse}, density-filter modes {kOff, kConservative},
// planted and adversarial datasets, mixed valid/invalid id slots, and
// per-point budget exhaustion. (IDistance's batched path is full-space
// only and is held to the same contract by tests/index/index_batch_test.)

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "src/kernels/va_screen.h"
#include "src/knn/linear_scan.h"
#include "src/lattice/saving_factors.h"
#include "src/search/batch_frontier.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"
#include "tests/testutil/adversarial_gen.h"

namespace hos::search {
namespace {

/// Everything QueryBatchFused promises bitwise: answer content plus every
/// counter that is a function of the point's own walk. Only the engine's
/// shared monitoring values (distance_computations, elapsed_seconds) are
/// exempt — see batch_frontier.h.
void ExpectOutcomeIdentical(const SearchOutcome& fused,
                            const SearchOutcome& sequential,
                            const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(fused.num_dims, sequential.num_dims);
  EXPECT_EQ(fused.threshold, sequential.threshold);
  EXPECT_EQ(fused.minimal_outlying_subspaces,
            sequential.minimal_outlying_subspaces);
  EXPECT_EQ(fused.evaluated_outliers, sequential.evaluated_outliers);
  EXPECT_EQ(fused.outlier_fraction, sequential.outlier_fraction);
  EXPECT_EQ(fused.counters.od_evaluations, sequential.counters.od_evaluations);
  EXPECT_EQ(fused.counters.pruned_upward, sequential.counters.pruned_upward);
  EXPECT_EQ(fused.counters.pruned_downward,
            sequential.counters.pruned_downward);
  EXPECT_EQ(fused.counters.steps, sequential.counters.steps);
  EXPECT_EQ(fused.counters.bound_decisions,
            sequential.counters.bound_decisions);
}

data::GeneratedData MakePlanted(uint64_t seed, int d) {
  Rng rng(seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = 220;
  spec.num_dims = d;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  if (d >= 5) {
    spec.planted_subspaces.push_back(Subspace::FromOneBased({3, 4, 5}));
  }
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  EXPECT_TRUE(generated.ok());
  return std::move(generated).value();
}

// Direct runner-level differential: BatchFrontierRunner against
// DynamicSubspaceSearch per point, over both lattice backends and batch
// sizes from 1 to well past the planted outlier count.
TEST(BatchFrontierTest, RunnerMatchesSequentialDynamicSearch) {
  const int d = 7;
  auto generated = MakePlanted(9001, d);
  const data::Dataset& ds = generated.dataset;
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  const lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);
  const DynamicSubspaceSearch sequential(d, priors);
  const BatchFrontierRunner runner(d, &priors);
  constexpr int kK = 4;
  constexpr double kThreshold = 0.9;

  for (lattice::LatticeBackend backend :
       {lattice::LatticeBackend::kDense, lattice::LatticeBackend::kSparse}) {
    for (size_t batch : {1u, 3u, 16u}) {
      SCOPED_TRACE("backend=" +
                   std::to_string(static_cast<int>(backend)) +
                   " batch=" + std::to_string(batch));
      SearchExecution exec;
      exec.lattice_backend = backend;

      std::vector<OdEvaluator> evaluators;
      std::vector<OdEvaluator*> pointers;
      evaluators.reserve(batch);
      for (size_t b = 0; b < batch; ++b) {
        const auto id = static_cast<data::PointId>(b * 13 % ds.size());
        evaluators.emplace_back(engine, ds.Row(id), kK, id);
        pointers.push_back(&evaluators.back());
      }
      auto fused = runner.Run(pointers, kThreshold, exec);
      ASSERT_EQ(fused.size(), batch);

      for (size_t b = 0; b < batch; ++b) {
        const auto id = static_cast<data::PointId>(b * 13 % ds.size());
        OdEvaluator seq_od(engine, ds.Row(id), kK, id);
        auto seq = sequential.Run(&seq_od, kThreshold, exec);
        ASSERT_TRUE(seq.ok());
        ASSERT_TRUE(fused[b].ok()) << fused[b].status().ToString();
        ExpectOutcomeIdentical(fused[b].value(), seq.value(),
                               "point " + std::to_string(b));
        // The fused evaluator memoised exactly the sequential masks with
        // exactly the sequential doubles.
        const uint64_t lattice_top = (uint64_t{1} << d) - 1;
        for (uint64_t mask = 1; mask <= lattice_top; ++mask) {
          double fused_value = 0.0, seq_value = 0.0;
          const bool fused_has =
              pointers[b]->LookupLocal(mask, &fused_value);
          const bool seq_has = seq_od.LookupLocal(mask, &seq_value);
          ASSERT_EQ(fused_has, seq_has) << "mask " << mask;
          if (fused_has) ASSERT_EQ(fused_value, seq_value) << "mask " << mask;
        }
      }
    }
  }
}

TEST(BatchFrontierTest, EmptyBatchAndPriorsMismatch) {
  const lattice::PruningPriors priors = lattice::PruningPriors::Flat(5);
  const BatchFrontierRunner empty_ok(5, &priors);
  EXPECT_TRUE(empty_ok.Run({}, 1.0, SearchExecution{}).empty());

  // Priors covering the wrong dimensionality fail every slot with the
  // sequential path's InvalidArgument, not a crash.
  auto generated = MakePlanted(9002, 6);
  knn::LinearScanKnn engine(generated.dataset, knn::MetricKind::kL2);
  OdEvaluator od(engine, generated.dataset.Row(0), 3, 0);
  std::vector<OdEvaluator*> pointers = {&od};
  const BatchFrontierRunner mismatched(6, &priors);
  auto results = mismatched.Run(pointers, 1.0, SearchExecution{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status().IsInvalidArgument())
      << results[0].status().ToString();
}

// Per-point budget exhaustion: under a tight budget each slot must land
// exactly where its sequential run lands — a point whose full-space OD is
// below threshold settles the whole lattice in one evaluation and
// succeeds, while a point that needs a wide level fails with the identical
// ResourceExhausted message. The mix inside one fused batch is the case
// that matters: an exhausted point must not take its healthy batch-mates
// down with it.
TEST(BatchFrontierTest, BudgetExhaustionMatchesSequentialPerPoint) {
  const int d = 6;
  auto generated = MakePlanted(9003, d);
  knn::LinearScanKnn engine(generated.dataset, knn::MetricKind::kL2);
  const lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);
  const DynamicSubspaceSearch sequential(d, priors);
  const BatchFrontierRunner runner(d, &priors);

  SearchExecution exec;
  exec.max_od_evaluations = 2;  // narrower than level 1's six subspaces

  // Two quiet inliers plus a planted outlier: the outlier's walk must
  // descend into wide levels to isolate the minimal subspaces, which a
  // 2-evaluation budget cannot cover.
  ASSERT_FALSE(generated.outliers.empty());
  const std::vector<data::PointId> points = {0, 1, generated.outliers[0].id};
  std::vector<OdEvaluator> evaluators;
  std::vector<OdEvaluator*> pointers;
  evaluators.reserve(points.size());
  for (data::PointId id : points) {
    evaluators.emplace_back(engine, generated.dataset.Row(id), 3, id);
    pointers.push_back(&evaluators.back());
  }
  auto fused = runner.Run(pointers, 0.9, exec);
  ASSERT_EQ(fused.size(), points.size());
  size_t exhausted = 0;
  size_t succeeded = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(points[i]));
    OdEvaluator seq_od(engine, generated.dataset.Row(points[i]), 3, points[i]);
    auto seq = sequential.Run(&seq_od, 0.9, exec);
    ASSERT_EQ(fused[i].ok(), seq.ok()) << fused[i].status().ToString();
    if (seq.ok()) {
      ++succeeded;
      ExpectOutcomeIdentical(fused[i].value(), seq.value(),
                             "point " + std::to_string(points[i]));
    } else {
      ++exhausted;
      EXPECT_TRUE(seq.status().IsResourceExhausted())
          << seq.status().ToString();
      EXPECT_EQ(fused[i].status().ToString(), seq.status().ToString());
    }
  }
  // The seed produces the mixed batch this test is about: at least one
  // budget failure co-scheduled with at least one success.
  EXPECT_GE(exhausted, 1u);
  EXPECT_GE(succeeded, 1u);
}

// Miner-level differential: QueryBatchFused against per-point Query across
// all three KnnEngine backends, both lattice stores, and both
// answer-preserving filter modes. This is the exact contract the service
// layer's fused QueryBatch relies on.
class QueryBatchFusedTest : public ::testing::TestWithParam<core::IndexKind> {
};

TEST_P(QueryBatchFusedTest, MatchesPerPointQueries) {
  auto generated = MakePlanted(9100, 6);
  core::HosMinerConfig config;
  config.index = GetParam();
  config.k = 4;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  std::vector<data::PointId> ids;
  for (data::PointId id = 0; id < 40; ++id) ids.push_back(id);
  ids.push_back(generated.outliers[0].id);

  const uint64_t lattice =
      (uint64_t{1} << static_cast<unsigned>(miner->num_dims())) - 1;
  for (lattice::LatticeBackend backend :
       {lattice::LatticeBackend::kDense, lattice::LatticeBackend::kSparse}) {
    // Filter-off answers of this backend, for the conservative ≡ off check.
    std::vector<SearchOutcome> off_outcomes(ids.size());
    for (filter::FilterMode mode :
         {filter::FilterMode::kOff, filter::FilterMode::kConservative}) {
      SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(backend)) +
                   " filter=" + std::to_string(static_cast<int>(mode)));
      core::QueryOptions options;
      options.lattice_backend = backend;
      options.filter_mode = mode;

      auto fused = miner->QueryBatchFused(ids, options);
      ASSERT_EQ(fused.size(), ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        auto seq = miner->Query(ids[i], options);
        ASSERT_TRUE(seq.ok()) << seq.status().ToString();
        ASSERT_TRUE(fused[i].ok()) << fused[i].status().ToString();
        const SearchOutcome& outcome = fused[i].value().outcome;
        ExpectOutcomeIdentical(outcome, seq->outcome,
                               "id " + std::to_string(ids[i]));
        EXPECT_EQ(fused[i].value().dataset_version, seq->dataset_version);
        if (mode == filter::FilterMode::kOff) {
          off_outcomes[i] = outcome;
          continue;
        }
        // Fused conservative answers are the filter-off answers, and the
        // closure identity holds with the filter in the loop.
        EXPECT_EQ(outcome.minimal_outlying_subspaces,
                  off_outcomes[i].minimal_outlying_subspaces);
        EXPECT_EQ(outcome.evaluated_outliers,
                  off_outcomes[i].evaluated_outliers);
        EXPECT_EQ(outcome.counters.od_evaluations +
                      outcome.counters.pruned_upward +
                      outcome.counters.pruned_downward +
                      outcome.counters.bound_decisions,
                  lattice);
      }
    }
  }
}

TEST_P(QueryBatchFusedTest, InvalidSlotsFailAloneAndExactlyLikeQuery) {
  auto generated = MakePlanted(9200, 5);
  core::HosMinerConfig config;
  config.index = GetParam();
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok());
  const auto tombstoned = static_cast<data::PointId>(7);
  ASSERT_TRUE(miner->Delete(std::vector<data::PointId>{tombstoned}).ok());

  const data::PointId out_of_range = miner->dataset().size() + 5;
  std::vector<data::PointId> ids = {0, out_of_range, tombstoned, 1};
  auto fused = miner->QueryBatchFused(ids, {});
  ASSERT_EQ(fused.size(), 4u);

  // Error slots carry the exact per-point statuses...
  auto seq_oor = miner->Query(out_of_range);
  auto seq_dead = miner->Query(tombstoned);
  EXPECT_TRUE(fused[1].status().IsOutOfRange());
  EXPECT_EQ(fused[1].status().ToString(), seq_oor.status().ToString());
  EXPECT_TRUE(fused[2].status().IsNotFound());
  EXPECT_EQ(fused[2].status().ToString(), seq_dead.status().ToString());

  // ...and the healthy batch-mates are answered identically regardless.
  for (size_t i : {size_t{0}, size_t{3}}) {
    auto seq = miner->Query(ids[i]);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(fused[i].ok());
    ExpectOutcomeIdentical(fused[i].value().outcome, seq->outcome,
                           "id " + std::to_string(ids[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, QueryBatchFusedTest,
    ::testing::Values(core::IndexKind::kLinearScan, core::IndexKind::kXTree,
                      core::IndexKind::kVaFile),
    [](const auto& info) {
      switch (info.param) {
        case core::IndexKind::kLinearScan:
          return "linear";
        case core::IndexKind::kXTree:
          return "xtree";
        case core::IndexKind::kVaFile:
          return "vafile";
      }
      return "unknown";
    });

// The adversarial generator's scenarios — near-threshold OD bands,
// correlated dimensions, duplicates and tombstones — are exactly where a
// fused path that shared the wrong state would first diverge. Probes
// straddle the threshold by a few percent, so even a one-ulp OD deviation
// flips verdicts.
TEST(QueryBatchFusedAdversarialTest, ProbesMatchPerPointQueries) {
  testutil::AdversarialSpec spec;
  spec.num_dims = 6;
  spec.seed = 4242;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);

  core::HosMinerConfig config;
  config.k = scenario.k;
  config.threshold = scenario.threshold;
  config.normalization = data::NormalizationKind::kNone;
  config.index = core::IndexKind::kXTree;
  auto miner =
      core::HosMiner::Build(testutil::ToDataset(scenario), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();
  ASSERT_TRUE(miner->Delete(scenario.tombstones).ok());

  std::vector<data::PointId> ids = scenario.probes;
  ids.push_back(5);  // background row amid the correlated cloud

  core::QueryOptions options;
  options.lattice_backend = lattice::LatticeBackend::kSparse;
  auto fused = miner->QueryBatchFused(ids, options);
  ASSERT_EQ(fused.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto seq = miner->Query(ids[i], options);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    ASSERT_TRUE(fused[i].ok()) << fused[i].status().ToString();
    ExpectOutcomeIdentical(fused[i].value().outcome, seq->outcome,
                           "probe id " + std::to_string(ids[i]));
  }
}

// The multi-query VA screening sweep must be bitwise the single-query
// sweep run once per query: same lower bounds (including the dead/skip
// sentinels) and the same k-smallest-upper heap contents, across metrics,
// block sizes that are and are not multiples of the row tile, and queries
// with and without an excluded row. This is the kernel the fused VA-file
// KnnBatch now rests on.
TEST(VaScreenSweepMultiTest, BitwiseIdenticalToPerQuerySweeps) {
  Rng rng(7100);
  constexpr size_t kNd = 3;
  constexpr size_t kK = 4;
  for (size_t base : {40u, 64u, 150u}) {
    for (knn::MetricKind metric : {knn::MetricKind::kL1,
                                   knn::MetricKind::kL2,
                                   knn::MetricKind::kLInf}) {
      SCOPED_TRACE("base=" + std::to_string(base) +
                   " metric=" + std::to_string(static_cast<int>(metric)));
      std::vector<uint8_t> codes(kNd * base);
      for (uint8_t& c : codes) {
        c = static_cast<uint8_t>(rng.UniformInt(0, 15));
      }
      std::vector<uint8_t> dead(base, 0);
      for (size_t r = 0; r < base; r += 9) dead[r] = 1;
      std::vector<double> lo0(kNd, 0.0), w(kNd);
      for (double& wc : w) wc = 1.0 / 16.0 + rng.Uniform() * 0.01;

      constexpr size_t kNq = 5;
      std::vector<double> qdims(kNq * kNd);
      for (double& q : qdims) q = rng.Uniform() * 1.2 - 0.1;
      std::vector<size_t> skips(kNq, static_cast<size_t>(-1));
      skips[1] = 3;
      skips[4] = base - 1;

      std::vector<double> multi_lowers(kNq * base);
      std::vector<std::priority_queue<double>> multi_heaps(kNq);
      kernels::VaScreenSweepMulti(metric, qdims.data(), lo0.data(), w.data(),
                                  kNd, kNq, codes.data(), base, dead.data(),
                                  skips.data(), kK, multi_heaps.data(),
                                  multi_lowers.data());

      for (size_t q = 0; q < kNq; ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        std::vector<double> single_lowers(base);
        std::priority_queue<double> single_heap;
        kernels::VaScreenSweep(metric, qdims.data() + q * kNd, lo0.data(),
                               w.data(), kNd, codes.data(), base,
                               dead.data(), skips[q], kK, single_heap,
                               single_lowers.data());
        for (size_t r = 0; r < base; ++r) {
          ASSERT_EQ(multi_lowers[q * base + r], single_lowers[r])
              << "row " << r;
        }
        ASSERT_EQ(multi_heaps[q].size(), single_heap.size());
        while (!single_heap.empty()) {
          ASSERT_EQ(multi_heaps[q].top(), single_heap.top());
          multi_heaps[q].pop();
          single_heap.pop();
        }
      }
    }
  }
}

// ScreenBatch (and so ScreenOutliers/TopOutliers, which are built on it)
// must produce the exact full-space OD doubles the per-point path does.
TEST(ScreenBatchTest, BitwiseIdenticalToPerPointOutlyingDegree) {
  auto generated = MakePlanted(9300, 6);
  core::HosMinerConfig config;
  config.k = 4;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok());

  std::vector<data::PointId> ids;
  for (data::PointId id = 0; id < miner->dataset().size(); id += 3) {
    ids.push_back(id);
  }
  const std::vector<double> fused = miner->ScreenBatch(ids);
  ASSERT_EQ(fused.size(), ids.size());

  const Subspace full((uint64_t{1} << miner->num_dims()) - 1);
  for (size_t i = 0; i < ids.size(); ++i) {
    knn::KnnQuery query;
    query.point = miner->dataset().Row(ids[i]);
    query.subspace = full;
    query.k = config.k;
    query.exclude = ids[i];
    EXPECT_EQ(fused[i], knn::OutlyingDegree(miner->engine(), query))
        << "id " << ids[i];
  }
}

// TopOutliersWithSubspaces seeds each ranked point's lattice walk with the
// full-space OD the screening pass already paid for. The seed enters the
// evaluator's memo before the walk starts, so answers are bitwise the
// plain Query's while the walk never re-evaluates the full mask — the
// seeded walk's fresh-evaluation count can only be lower or equal.
TEST(TopOutliersWithSubspacesTest, SeededWalksMatchPerPointQueries) {
  auto generated = MakePlanted(9500, 6);
  core::HosMinerConfig config;
  config.k = 4;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  const auto top = miner->TopOutliersWithSubspaces(6);
  ASSERT_FALSE(top.empty());
  const Subspace full((uint64_t{1} << miner->num_dims()) - 1);
  for (const auto& entry : top) {
    SCOPED_TRACE("id " + std::to_string(entry.id));
    ASSERT_TRUE(entry.result.ok()) << entry.result.status().ToString();
    const auto& seeded = entry.result.value().outcome;

    // The carried full-space OD is the exact per-point double.
    knn::KnnQuery query;
    query.point = miner->dataset().Row(entry.id);
    query.subspace = full;
    query.k = config.k;
    query.exclude = entry.id;
    EXPECT_EQ(entry.full_space_od,
              knn::OutlyingDegree(miner->engine(), query));

    auto seq = miner->Query(entry.id);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(seeded.minimal_outlying_subspaces,
              seq->outcome.minimal_outlying_subspaces);
    EXPECT_EQ(seeded.evaluated_outliers, seq->outcome.evaluated_outliers);
    EXPECT_EQ(seeded.outlier_fraction, seq->outcome.outlier_fraction);
    EXPECT_EQ(seeded.counters.pruned_upward,
              seq->outcome.counters.pruned_upward);
    EXPECT_EQ(seeded.counters.pruned_downward,
              seq->outcome.counters.pruned_downward);
    EXPECT_EQ(seeded.counters.steps, seq->outcome.counters.steps);
    EXPECT_LE(seeded.counters.od_evaluations,
              seq->outcome.counters.od_evaluations);
  }
}

}  // namespace
}  // namespace hos::search
