// The density-bound pre-filter's exactness contract, end to end. For both
// kNN backends ({linear scan, X-tree}; the X-tree is also held to the
// contract at the engine level below), both lattice stores, and both a
// random planted-outlier dataset and an adversarially generated one
// (near-threshold OD bands, correlated dimensions, duplicates, tombstones —
// see tests/testutil/adversarial_gen.h):
//
//  * FilterMode::kConservative must be *bitwise identical* to kOff: same
//    minimal outlying subspaces, same per-mask verdict over the whole
//    lattice, same order-sensitive evaluated_outliers list, same pruning
//    and step counters — while od_evaluations drops by exactly
//    bound_decisions (the sum identity), and the closure identity
//    od + pruned_up + pruned_down + bound_decisions == 2^d - 1 holds.
//  * The filter must actually fire: across the query set, conservative
//    mode's summed bound_decisions is > 0 (the contract is not allowed to
//    hold vacuously).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/hos_miner.h"
#include "src/data/dataset.h"
#include "src/data/generator.h"
#include "src/filter/density_filter.h"
#include "src/filter/density_summary.h"
#include "src/index/xtree.h"
#include "src/knn/knn_engine.h"
#include "tests/testutil/adversarial_gen.h"

namespace hos {
namespace {

struct Scenario {
  std::string name;
  core::HosMiner miner;
  std::vector<data::PointId> queries;
};

core::HosMinerConfig BaseConfig(core::IndexKind index) {
  core::HosMinerConfig config;
  config.k = 4;
  config.threshold = 1.1;
  config.index = index;
  config.sample_size = 4;
  config.seed = 42;
  return config;
}

/// Random arm: the planted-subspace generator the strategy differential
/// suite uses (min-max normalized, so the filter's quantization sees the
/// same coordinates the kNN path does).
Scenario RandomScenario(core::IndexKind index) {
  Rng rng(1006);
  data::SubspaceOutlierSpec spec;
  spec.num_points = 110;
  spec.num_dims = 6;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2}),
                            Subspace::FromOneBased({3, 4, 5})};
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();

  std::vector<data::PointId> queries;
  for (const auto& planted : generated->outliers) queries.push_back(planted.id);
  queries.push_back(0);  // a background inlier
  queries.push_back(57);

  auto built =
      core::HosMiner::Build(std::move(generated->dataset), BaseConfig(index));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return {"random", std::move(built).value(), std::move(queries)};
}

/// Adversarial arm: near-threshold bands + correlated dims + duplicates,
/// with the tombstone set applied after Build, so the filter's tallies
/// retire the deleted rows through the miner's commit hook. Normalization
/// off and the generator's own threshold, so the bands stay near T.
Scenario AdversarialScenario(core::IndexKind index) {
  testutil::AdversarialSpec spec;
  spec.seed = 77;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);

  core::HosMinerConfig config = BaseConfig(index);
  config.k = scenario.k;
  config.threshold = scenario.threshold;
  config.normalization = data::NormalizationKind::kNone;
  // Un-normalized coordinates span ~[0, 3]: keep the quantization cells
  // fine enough (2^8 per dim) that bounds stay meaningful against the
  // generator's T.
  config.va_file.bits_per_dim = 8;

  auto built = core::HosMiner::Build(testutil::ToDataset(scenario), config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  core::HosMiner miner = std::move(built).value();
  EXPECT_TRUE(miner.Delete(scenario.tombstones).ok());

  std::vector<data::PointId> queries = scenario.probes;
  queries.push_back(5);   // background (live; tombstone stride starts at 2)
  queries.push_back(12);  // background near a duplicate pair
  return {"adversarial", std::move(miner), std::move(queries)};
}

/// Per-mask verdicts over the whole lattice, from the refined answer.
std::vector<bool> VerdictVector(const core::QueryResult& result, int d) {
  const uint64_t lattice = (uint64_t{1} << d) - 1;
  std::vector<bool> verdicts(lattice + 1, false);
  for (uint64_t mask = 1; mask <= lattice; ++mask) {
    verdicts[mask] = result.outcome.IsOutlying(Subspace(mask));
  }
  return verdicts;
}

class FilterDifferentialTest
    : public ::testing::TestWithParam<core::IndexKind> {};

TEST_P(FilterDifferentialTest, ConservativeIsBitwiseOff) {
  std::vector<Scenario> scenarios;
  scenarios.push_back(RandomScenario(GetParam()));
  scenarios.push_back(AdversarialScenario(GetParam()));

  for (Scenario& scenario : scenarios) {
    SCOPED_TRACE("scenario=" + scenario.name);
    const int d = scenario.miner.num_dims();
    const uint64_t lattice = (uint64_t{1} << d) - 1;

    for (lattice::LatticeBackend backend :
         {lattice::LatticeBackend::kDense, lattice::LatticeBackend::kSparse}) {
      SCOPED_TRACE(backend == lattice::LatticeBackend::kDense ? "dense"
                                                              : "sparse");
      uint64_t total_bound_decisions = 0;

      for (data::PointId id : scenario.queries) {
        SCOPED_TRACE("query id=" + std::to_string(id));
        core::QueryOptions off_opts;
        off_opts.lattice_backend = backend;
        core::QueryOptions cons_opts = off_opts;
        cons_opts.filter_mode = filter::FilterMode::kConservative;

        auto off = scenario.miner.Query(id, off_opts);
        auto cons = scenario.miner.Query(id, cons_opts);
        ASSERT_TRUE(off.ok()) << off.status().ToString();
        ASSERT_TRUE(cons.ok()) << cons.status().ToString();

        // --- kOff sanity: the filter counter stays untouched.
        EXPECT_EQ(off->outcome.counters.bound_decisions, 0u);

        // --- Conservative: bitwise identical answers.
        EXPECT_EQ(cons->outcome.minimal_outlying_subspaces,
                  off->outcome.minimal_outlying_subspaces);
        EXPECT_EQ(cons->outcome.evaluated_outliers,
                  off->outcome.evaluated_outliers);
        EXPECT_EQ(cons->outcome.outlier_fraction,
                  off->outcome.outlier_fraction);
        EXPECT_EQ(VerdictVector(*cons, d), VerdictVector(*off, d));
        // Order-independent counters unchanged; exact evaluations drop by
        // exactly the bound-decided count (the sum identity).
        EXPECT_EQ(cons->outcome.counters.pruned_upward,
                  off->outcome.counters.pruned_upward);
        EXPECT_EQ(cons->outcome.counters.pruned_downward,
                  off->outcome.counters.pruned_downward);
        EXPECT_EQ(cons->outcome.counters.steps, off->outcome.counters.steps);
        EXPECT_EQ(off->outcome.counters.od_evaluations,
                  cons->outcome.counters.od_evaluations +
                      cons->outcome.counters.bound_decisions);
        // Closure identity with the filter in the loop.
        EXPECT_EQ(cons->outcome.counters.od_evaluations +
                      cons->outcome.counters.pruned_upward +
                      cons->outcome.counters.pruned_downward +
                      cons->outcome.counters.bound_decisions,
                  lattice);
        total_bound_decisions += cons->outcome.counters.bound_decisions;
      }

      // The contract must not hold vacuously: across the query set the
      // conservative filter decided at least some subspaces without a kNN
      // call.
      EXPECT_GT(total_bound_decisions, 0u)
          << "the pre-filter never fired on scenario " << scenario.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FilterDifferentialTest,
                         ::testing::Values(core::IndexKind::kLinearScan,
                                           core::IndexKind::kXTree),
                         [](const auto& info) {
                           return info.param == core::IndexKind::kXTree
                                      ? "XTree"
                                      : "LinearScan";
                         });

// The filter at the engine level, at the full-space mask (the screening
// stage's mask): a conservative Decide verdict must agree with the exact
// verdict derived from an X-tree's OD (sum of the k nearest distances),
// for every live row, with tombstones set after the tree was built.
TEST(FilterFullSpaceTest, ConservativeVerdictsAgreeWithExactFullSpaceOd) {
  testutil::AdversarialSpec spec;
  spec.seed = 99;
  spec.num_dims = 5;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);
  data::Dataset dataset = testutil::ToDataset(scenario);

  auto built = index::XTree::BulkLoad(dataset, knn::MetricKind::kL2);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const index::XTreeKnn engine(built.value());
  ASSERT_TRUE(dataset.DeleteRows(scenario.tombstones).ok());

  filter::DensityBoundFilter filter(
      dataset, knn::MetricKind::kL2,
      filter::DensitySummary::Build(dataset, /*bits_per_dim=*/8));
  const uint64_t full = Subspace::Full(spec.num_dims).mask();

  uint64_t decided = 0;
  for (data::PointId id = 0; id < static_cast<data::PointId>(dataset.size());
       ++id) {
    if (!dataset.IsLive(id)) continue;
    knn::KnnQuery query;
    query.point = dataset.Row(id);
    query.subspace = Subspace(full);
    query.k = scenario.k;
    query.exclude = id;
    const double exact_od = knn::OutlyingDegree(engine, query);
    const bool exact_outlier = exact_od >= scenario.threshold;

    const filter::FilterDecision decision = filter.Decide(
        dataset.Row(id), full, scenario.k, id, scenario.threshold);
    if (!decision.decided()) continue;
    ++decided;
    EXPECT_EQ(decision.verdict == filter::FilterDecision::Verdict::kOutlier,
              exact_outlier)
        << "conservative verdict contradicts X-tree-exact OD " << exact_od
        << " for id " << id;
  }
  // Far-from-threshold rows exist by construction, so some must decide.
  EXPECT_GT(decided, 0u);
}

}  // namespace
}  // namespace hos
