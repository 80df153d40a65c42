// The streaming-ingest acceptance harness: append-then-query must be
// *bitwise identical* to build-from-scratch-then-query, and to
// append-then-rebuild-then-query, for every kNN backend × both lattice
// storage backends.
//
// Why bitwise equality is attainable: an appended row's distance to a query
// point is computed either by the batched kernel (after a rebuild) or by
// the scalar delta scan (before one), and the two are held bit-identical by
// tests/kernels/. The k-smallest selection and OD summation then consume
// the same doubles in the same order, so OD values, the decided lattice,
// the answer sets and the order-independent search counters all match
// exactly. The test pins the knobs that would otherwise legitimately
// differ between the two arms: the threshold is given explicitly (the
// streaming system never re-estimates T), learning is disabled (appends
// invalidate priors lazily; priors steer only search order, but the
// counters compared here are order-sensitive), and normalization is off
// (an append-time system cannot re-fit column scales without changing the
// meaning of already-returned answers).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "src/index/idistance.h"
#include "src/knn/knn_engine.h"

namespace hos {
namespace {

constexpr size_t kBaseRows = 180;
constexpr size_t kDeltaRows = 60;
constexpr int kDims = 6;
constexpr double kThreshold = 0.9;

std::vector<std::vector<double>> RowsOf(const data::Dataset& dataset,
                                        size_t begin, size_t end) {
  std::vector<std::vector<double>> rows;
  rows.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    rows.push_back(dataset.RowCopy(static_cast<data::PointId>(i)));
  }
  return rows;
}

/// Background + planted subspace outliers; planted rows land at the end,
/// so the delta contains outliers — the append path must find them.
data::Dataset MakeData(uint64_t seed) {
  Rng rng(seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = kBaseRows + kDeltaRows;
  spec.num_dims = kDims;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2}),
                           Subspace::FromOneBased({4, 5})};
  spec.outliers_per_subspace = 2;
  spec.displacement = 0.6;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return std::move(generated)->dataset;
}

core::HosMinerConfig MakeConfig(core::IndexKind index) {
  core::HosMinerConfig config;
  config.index = index;
  config.k = 4;
  config.threshold = kThreshold;  // never re-estimated under streaming
  config.normalization = data::NormalizationKind::kNone;
  config.sample_size = 0;  // flat priors: search order independent of data
  return config;
}

core::HosMiner BuildOn(const std::vector<std::vector<double>>& rows,
                       core::IndexKind index) {
  auto dataset = data::Dataset::FromRows(rows, kDims);
  EXPECT_TRUE(dataset.ok());
  auto miner = core::HosMiner::Build(std::move(dataset).value(),
                                     MakeConfig(index));
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

/// Everything the acceptance criterion names, compared with exact ==:
/// answer sets, per-level fractions (OD-derived doubles), and the
/// order-independent work counters. distance_computations is deliberately
/// excluded for the index backends: it depends on index *shape* (a tree
/// bulk-loaded over n+delta rows prunes differently than one over n rows
/// plus a delta scan), which exactness does not.
void ExpectBitwiseOutcome(const core::QueryResult& streamed,
                          const core::QueryResult& reference,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(streamed.outcome.num_dims, reference.outcome.num_dims);
  EXPECT_EQ(streamed.outcome.threshold, reference.outcome.threshold);
  EXPECT_EQ(streamed.outcome.minimal_outlying_subspaces,
            reference.outcome.minimal_outlying_subspaces);
  EXPECT_EQ(streamed.outcome.evaluated_outliers,
            reference.outcome.evaluated_outliers);
  ASSERT_EQ(streamed.outcome.outlier_fraction.size(),
            reference.outcome.outlier_fraction.size());
  for (size_t m = 0; m < streamed.outcome.outlier_fraction.size(); ++m) {
    EXPECT_EQ(streamed.outcome.outlier_fraction[m],
              reference.outcome.outlier_fraction[m])
        << "level " << m;
  }
  EXPECT_EQ(streamed.outcome.counters.od_evaluations,
            reference.outcome.counters.od_evaluations);
  EXPECT_EQ(streamed.outcome.counters.pruned_upward,
            reference.outcome.counters.pruned_upward);
  EXPECT_EQ(streamed.outcome.counters.pruned_downward,
            reference.outcome.counters.pruned_downward);
  EXPECT_EQ(streamed.outcome.counters.steps,
            reference.outcome.counters.steps);
  EXPECT_EQ(streamed.outcome.counters.bound_decisions,
            reference.outcome.counters.bound_decisions);
}

/// OD(p, s) compared bit-for-bit at the engine level over every subspace of
/// the lattice — the raw doubles behind the outcomes above.
void ExpectBitwiseOdValues(const core::HosMiner& streamed,
                           const core::HosMiner& reference,
                           data::PointId id, const std::string& label) {
  SCOPED_TRACE(label);
  for (uint64_t mask = 1; mask < (uint64_t{1} << kDims); ++mask) {
    knn::KnnQuery query;
    query.point = streamed.dataset().Row(id);
    query.subspace = Subspace(mask);
    query.k = streamed.config().k;
    query.exclude = id;
    const double od_streamed = knn::OutlyingDegree(streamed.engine(), query);
    knn::KnnQuery ref_query = query;
    ref_query.point = reference.dataset().Row(id);
    const double od_reference =
        knn::OutlyingDegree(reference.engine(), ref_query);
    ASSERT_EQ(od_streamed, od_reference)
        << "OD diverges at mask " << mask << " for point " << id;
  }
}

using IngestParam = std::tuple<core::IndexKind, lattice::LatticeBackend>;

class IngestDifferentialTest : public ::testing::TestWithParam<IngestParam> {
};

std::string IngestParamName(const ::testing::TestParamInfo<IngestParam>& info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case core::IndexKind::kLinearScan: name = "LinearScan"; break;
    case core::IndexKind::kXTree: name = "XTree"; break;
    case core::IndexKind::kVaFile: name = "VaFile"; break;
  }
  name += std::get<1>(info.param) == lattice::LatticeBackend::kDense
              ? "Dense"
              : "Sparse";
  return name;
}

TEST_P(IngestDifferentialTest, AppendEqualsRebuildEqualsFreshBuild) {
  const auto [index, backend] = GetParam();
  const data::Dataset all = MakeData(/*seed=*/1234);
  const auto base_rows = RowsOf(all, 0, kBaseRows);
  const auto delta_rows = RowsOf(all, kBaseRows, all.size());
  const auto all_rows = RowsOf(all, 0, all.size());

  // Arm A: build on the base, append the delta, query through the delta
  // scan. Arm B: one fresh build over everything.
  // The generator appends its planted outlier rows after the background,
  // so the delta is kDeltaRows background rows plus the planted outliers.
  const size_t delta_count = all.size() - kBaseRows;
  core::HosMiner streamed = BuildOn(base_rows, index);
  const uint64_t version_before = streamed.version();
  auto appended = streamed.Append(delta_rows);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(*appended, version_before + delta_count);
  EXPECT_EQ(streamed.delta_rows(), delta_count);

  core::HosMiner reference = BuildOn(all_rows, index);
  ASSERT_EQ(streamed.dataset().size(), reference.dataset().size());

  core::QueryOptions options;
  options.lattice_backend = backend;

  // Probe base rows, background delta rows, and the planted outliers that
  // live in the delta.
  const std::vector<data::PointId> probes = {
      0, 17, static_cast<data::PointId>(kBaseRows - 1),
      static_cast<data::PointId>(kBaseRows + 3),
      static_cast<data::PointId>(all.size() - 1),
      static_cast<data::PointId>(all.size() - 2)};

  for (data::PointId id : probes) {
    ExpectBitwiseOdValues(streamed, reference, id,
                          "append vs fresh, point " + std::to_string(id));
    auto got = streamed.Query(id, options);
    auto want = reference.Query(id, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got->dataset_version, streamed.version());
    ExpectBitwiseOutcome(*got, *want,
                         "append vs fresh, point " + std::to_string(id));
  }

  // Arm C: rebuild folds the delta into the index; everything must still
  // match, and now even the index shape is the fresh build's (same
  // factory over the same rows), so distance counters agree too.
  ASSERT_TRUE(streamed.Rebuild().ok());
  EXPECT_EQ(streamed.delta_rows(), 0u);
  for (data::PointId id : probes) {
    ExpectBitwiseOdValues(streamed, reference, id,
                          "rebuild vs fresh, point " + std::to_string(id));
    auto got = streamed.Query(id, options);
    auto want = reference.Query(id, options);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ExpectBitwiseOutcome(*got, *want,
                         "rebuild vs fresh, point " + std::to_string(id));
    EXPECT_EQ(got->outcome.counters.distance_computations,
              want->outcome.counters.distance_computations)
        << "rebuilt index shape should match the fresh build's";
  }

  // Screening (full-space OD over every row, delta included) agrees.
  const auto screened_streamed = streamed.ScreenOutliers();
  const auto screened_reference = reference.ScreenOutliers();
  ASSERT_EQ(screened_streamed.size(), screened_reference.size());
  for (size_t i = 0; i < screened_streamed.size(); ++i) {
    EXPECT_EQ(screened_streamed[i].id, screened_reference[i].id);
    EXPECT_EQ(screened_streamed[i].full_space_od,
              screened_reference[i].full_space_od);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, IngestDifferentialTest,
    ::testing::Combine(::testing::Values(core::IndexKind::kLinearScan,
                                         core::IndexKind::kXTree,
                                         core::IndexKind::kVaFile),
                       ::testing::Values(lattice::LatticeBackend::kDense,
                                         lattice::LatticeBackend::kSparse)),
    IngestParamName);

// The fourth backend: iDistance serves full-space kNN (the screening
// stage), so its append/rebuild equivalence is asserted at the engine
// level — neighbour ids and distances bit-for-bit.
TEST(IngestDifferentialTest, IDistanceAppendAndRebuildMatchFreshBuild) {
  const data::Dataset all = MakeData(/*seed=*/99);
  const auto base_rows = RowsOf(all, 0, kBaseRows);
  const auto delta_rows = RowsOf(all, kBaseRows, all.size());
  const auto all_rows = RowsOf(all, 0, all.size());

  auto streamed_data = data::Dataset::FromRows(base_rows, kDims);
  ASSERT_TRUE(streamed_data.ok());
  data::Dataset streamed_dataset = std::move(streamed_data).value();
  auto reference_data = data::Dataset::FromRows(all_rows, kDims);
  ASSERT_TRUE(reference_data.ok());
  data::Dataset reference_dataset = std::move(reference_data).value();

  index::IDistanceConfig config;
  config.num_partitions = 8;
  Rng rng_a(7);
  auto streamed = index::IDistance::Build(streamed_dataset,
                                          knn::MetricKind::kL2, config,
                                          &rng_a);
  ASSERT_TRUE(streamed.ok());
  Rng rng_b(7);
  auto reference = index::IDistance::Build(reference_dataset,
                                           knn::MetricKind::kL2, config,
                                           &rng_b);
  ASSERT_TRUE(reference.ok());

  ASSERT_TRUE(streamed_dataset.AppendRows(delta_rows).ok());
  EXPECT_EQ(streamed->base_rows(), kBaseRows);

  auto expect_equal_neighbors = [&](const std::string& label) {
    SCOPED_TRACE(label);
    for (data::PointId id : {data::PointId{0}, data::PointId{50},
                             static_cast<data::PointId>(kBaseRows + 1),
                             static_cast<data::PointId>(all.size() - 1)}) {
      for (int k : {1, 4, 9}) {
        const auto got = streamed->Knn(streamed_dataset.Row(id), k, id);
        const auto want = reference->Knn(reference_dataset.Row(id), k, id);
        ASSERT_EQ(got.size(), want.size()) << "k=" << k << " id=" << id;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << "k=" << k << " id=" << id;
          EXPECT_EQ(got[i].distance, want[i].distance)
              << "k=" << k << " id=" << id;
        }
      }
      const auto got_range =
          streamed->RangeSearch(streamed_dataset.Row(id), 0.4);
      const auto want_range =
          reference->RangeSearch(reference_dataset.Row(id), 0.4);
      ASSERT_EQ(got_range.size(), want_range.size()) << "id=" << id;
      for (size_t i = 0; i < got_range.size(); ++i) {
        EXPECT_EQ(got_range[i].id, want_range[i].id);
        EXPECT_EQ(got_range[i].distance, want_range[i].distance);
      }
    }
  };

  expect_equal_neighbors("append (delta scan) vs fresh build");

  // Rebuild with the same seed reproduces the fresh build's partitioning.
  Rng rng_c(7);
  ASSERT_TRUE(streamed->Rebuild(&rng_c).ok());
  EXPECT_EQ(streamed->base_rows(), all.size());
  ASSERT_TRUE(streamed->CheckInvariants().ok());
  expect_equal_neighbors("rebuild vs fresh build");
}

}  // namespace
}  // namespace hos
