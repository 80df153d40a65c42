#include "src/search/od_evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/knn/linear_scan.h"

namespace hos::search {
namespace {

TEST(OdEvaluatorTest, MatchesDirectComputation) {
  Rng rng(1);
  data::Dataset ds = data::GenerateUniform(100, 4, &rng);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  auto row = ds.Row(0);
  OdEvaluator od(engine, row, 5, data::PointId{0});

  knn::KnnQuery query;
  query.point = row;
  query.subspace = Subspace::FromDims({0, 2});
  query.k = 5;
  query.exclude = data::PointId{0};
  EXPECT_DOUBLE_EQ(od.Evaluate(Subspace::FromDims({0, 2})),
                   knn::OutlyingDegree(engine, query));
}

TEST(OdEvaluatorTest, CachesRepeatEvaluations) {
  Rng rng(2);
  data::Dataset ds = data::GenerateUniform(50, 3, &rng);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  auto row = ds.Row(1);
  OdEvaluator od(engine, row, 3, data::PointId{1});
  Subspace s = Subspace::Full(3);
  double first = od.Evaluate(s);
  uint64_t dist_after_first = engine.distance_computations();
  double second = od.Evaluate(s);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(engine.distance_computations(), dist_after_first);
  EXPECT_EQ(od.num_evaluations(), 1u);
}

TEST(OdEvaluatorTest, DistinctSubspacesCountSeparately) {
  Rng rng(3);
  data::Dataset ds = data::GenerateUniform(50, 3, &rng);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  auto row = ds.Row(0);
  OdEvaluator od(engine, row, 3, data::PointId{0});
  od.Evaluate(Subspace::FromDims({0}));
  od.Evaluate(Subspace::FromDims({1}));
  od.Evaluate(Subspace::FromDims({0, 1}));
  EXPECT_EQ(od.num_evaluations(), 3u);
}

TEST(OdEvaluatorTest, ExternalPointWithoutExclusion) {
  data::Dataset ds(1);
  ds.Append(std::vector<double>{0.0});
  ds.Append(std::vector<double>{1.0});
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  std::vector<double> q{0.25};
  OdEvaluator od(engine, q, 2);
  // Neighbours: 0 at 0.25, 1 at 0.75 → OD = 1.0.
  EXPECT_DOUBLE_EQ(od.Evaluate(Subspace::Full(1)), 1.0);
}

TEST(OdEvaluatorTest, MonotonicityAcrossChain) {
  Rng rng(4);
  data::Dataset ds = data::GenerateUniform(200, 5, &rng);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  auto row = ds.Row(7);
  OdEvaluator od(engine, row, 4, data::PointId{7});
  // OD along a chain of nested subspaces must be non-decreasing.
  double prev = 0.0;
  Subspace s;
  for (int dim = 0; dim < 5; ++dim) {
    s = s.With(dim);
    double value = od.Evaluate(s);
    EXPECT_GE(value + 1e-12, prev);
    prev = value;
  }
}

/// Distinct non-empty masks spread over the whole 62-bit range: every
/// fourth one has bit 57 set.
std::vector<uint64_t> SpreadMasks(size_t count) {
  Rng rng(57);
  std::vector<uint64_t> masks;
  while (masks.size() < count) {
    uint64_t mask =
        static_cast<uint64_t>(rng.UniformInt(1, (int64_t{1} << 40) - 1));
    if (masks.size() % 4 == 0) mask |= uint64_t{1} << 57;
    if (std::find(masks.begin(), masks.end(), mask) == masks.end()) {
      masks.push_back(mask);
    }
  }
  return masks;
}

TEST(OdEvaluatorTest, MemoHoldsEveryDepositAcrossGrowths) {
  data::Dataset ds(2);
  ds.Append(std::vector<double>{0.0, 0.0});
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  OdEvaluator od(engine, ds.Row(0), 1, data::PointId{0});
  // 1,500 values grow the table from empty through several doublings;
  // every earlier value must survive each re-placement.
  const std::vector<uint64_t> masks = SpreadMasks(1500);
  for (size_t i = 0; i < masks.size(); ++i) {
    od.Deposit(masks[i], 0.5 * static_cast<double>(i),
               i % 3 == 0 ? OdEvaluator::ValueSource::kSharedStoreHit
                          : OdEvaluator::ValueSource::kComputed);
    if (i % 100 == 99 || i + 1 == masks.size()) {
      for (size_t j = 0; j <= i; ++j) {
        double value = -1.0;
        ASSERT_TRUE(od.LookupLocal(masks[j], &value))
            << "mask " << masks[j] << " after " << i + 1 << " deposits";
        EXPECT_EQ(value, 0.5 * static_cast<double>(j));
      }
    }
  }
  EXPECT_EQ(od.num_shared_hits(), 500u);
  EXPECT_EQ(od.num_evaluations(), 1000u);
}

TEST(OdEvaluatorTest, DuplicateDepositMovesNoCounter) {
  data::Dataset ds(1);
  ds.Append(std::vector<double>{0.0});
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  OdEvaluator od(engine, ds.Row(0), 1, data::PointId{0});
  const uint64_t high = (uint64_t{1} << 57) | 0b101;
  od.Deposit(high, 2.0, OdEvaluator::ValueSource::kComputed);
  od.Deposit(0b11, 3.0, OdEvaluator::ValueSource::kSharedStoreHit);
  for (auto source : {OdEvaluator::ValueSource::kComputed,
                      OdEvaluator::ValueSource::kSharedStoreHit}) {
    od.Deposit(high, 9.0, source);
    od.Deposit(0b11, 9.0, source);
  }
  EXPECT_EQ(od.num_evaluations(), 1u);
  EXPECT_EQ(od.num_shared_hits(), 1u);
  double value = 0.0;
  ASSERT_TRUE(od.LookupLocal(high, &value));
  EXPECT_EQ(value, 2.0);  // the first value stays
  ASSERT_TRUE(od.LookupLocal(0b11, &value));
  EXPECT_EQ(value, 3.0);
}

TEST(OdEvaluatorTest, LookupLocalMissesAbsentMasks) {
  data::Dataset ds(1);
  ds.Append(std::vector<double>{0.0});
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  OdEvaluator od(engine, ds.Row(0), 1, data::PointId{0});
  double value = 7.0;
  EXPECT_FALSE(od.LookupLocal(1, &value));  // empty memo
  const std::vector<uint64_t> masks = SpreadMasks(300);
  for (size_t i = 0; i < 200; ++i) {
    od.Deposit(masks[i], 1.0, OdEvaluator::ValueSource::kComputed);
  }
  for (size_t i = 200; i < masks.size(); ++i) {
    EXPECT_FALSE(od.LookupLocal(masks[i], &value)) << "mask " << masks[i];
  }
  EXPECT_EQ(value, 7.0);  // untouched by every miss
}

TEST(OdEvaluatorTest, EmptyMaskIsNeverMemoised) {
  // Mask 0 marks an empty memo slot, so it must never read as a hit — not
  // on a populated memo either — and a Deposit of it must change nothing.
  Rng rng(6);
  data::Dataset ds = data::GenerateUniform(40, 3, &rng);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  OdEvaluator od(engine, ds.Row(2), 3, data::PointId{2});
  od.Deposit(0b011, 5.0, OdEvaluator::ValueSource::kComputed);
  double value = 7.0;
  EXPECT_FALSE(od.LookupLocal(0, &value));
  od.Deposit(0, 1.0, OdEvaluator::ValueSource::kComputed);
  EXPECT_FALSE(od.LookupLocal(0, &value));
  EXPECT_EQ(value, 7.0);
  EXPECT_EQ(od.num_evaluations(), 1u);
  // The empty subspace is evaluated afresh (and counted) on every call.
  knn::KnnQuery query;
  query.point = ds.Row(2);
  query.subspace = Subspace();
  query.k = 3;
  query.exclude = data::PointId{2};
  const double expected = knn::OutlyingDegree(engine, query);
  EXPECT_EQ(od.Evaluate(Subspace()), expected);
  EXPECT_EQ(od.Evaluate(Subspace()), expected);
  EXPECT_EQ(od.num_evaluations(), 3u);
  ASSERT_TRUE(od.LookupLocal(0b011, &value));
  EXPECT_EQ(value, 5.0);
}

TEST(OdEvaluatorTest, MemoisedEvaluateIssuesNoKnnCall) {
  Rng rng(5);
  data::Dataset ds = data::GenerateUniform(60, 4, &rng);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  OdEvaluator od(engine, ds.Row(3), 3, data::PointId{3});
  // A deposited value answers Evaluate as is, without a kNN search.
  od.Deposit(0b0110, 42.0, OdEvaluator::ValueSource::kComputed);
  const double computed = od.Evaluate(Subspace(0b1001));
  const uint64_t distances = engine.distance_computations();
  EXPECT_EQ(od.Evaluate(Subspace(0b0110)), 42.0);
  EXPECT_EQ(od.Evaluate(Subspace(0b1001)), computed);
  EXPECT_EQ(engine.distance_computations(), distances);
  EXPECT_EQ(od.num_evaluations(), 2u);
}

}  // namespace
}  // namespace hos::search
