// Golden end-to-end regression: a checked-in CSV (tests/integration/
// testdata/golden.csv) and the exact result_json answer of one
// HosMiner::Query over it (golden_result.json). Any kernel, backend or
// search change that shifts the answer — neighbour sets, OD values, lattice
// traversal order, even the distance-computation tally — fails this test
// loudly instead of drifting silently.
//
// The fixture was produced by GenerateSubspaceOutliers(seed 424242,
// n=80, d=4, planted subspace [1,2], displacement 0.55); the planted
// outlier is row 80. To regenerate after an *intentional* behaviour change,
// run the same query (config below) and overwrite golden_result.json with
// the printed actual JSON, zeroing counters.elapsed_seconds.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/core/hos_miner.h"
#include "src/core/result_json.h"
#include "src/data/csv.h"
#include "src/service/thread_pool.h"

namespace hos {
namespace {

constexpr data::PointId kPlantedId = 80;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(GoldenQueryTest, ResultJsonMatchesCheckedInAnswer) {
  const std::string dir =
      std::string(HOS_SOURCE_DIR) + "/tests/integration/testdata";
  auto dataset = data::ReadCsvFile(dir + "/golden.csv");
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ASSERT_EQ(dataset->size(), 81u);
  ASSERT_EQ(dataset->num_dims(), 4);

  core::HosMinerConfig config;
  config.k = 4;
  config.threshold = 1.1;
  config.seed = 7;
  auto miner = core::HosMiner::Build(std::move(dataset).value(), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  auto result = miner->Query(kPlantedId);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Wall-clock is the one nondeterministic field; zero it so the remaining
  // JSON — answers and work counters — must match bit for bit.
  result->outcome.counters.elapsed_seconds = 0.0;

  std::string want = ReadFile(dir + "/golden_result.json");
  // Tolerate a trailing newline in the fixture.
  while (!want.empty() && (want.back() == '\n' || want.back() == '\r')) {
    want.pop_back();
  }
  EXPECT_EQ(core::QueryResultToJson(*result), want)
      << "actual JSON (use to regenerate golden_result.json after an "
         "intentional change):\n"
      << core::QueryResultToJson(*result);
}

// The same query with its lattice frontier fanned out across a 4-thread
// pool must serialise byte-identically to the single-threaded golden
// answer — answers, OD-derived fields AND work counters (same subspaces
// evaluated, same kNN calls), so any scheduling leak
// into the result surfaces as a diff against the same fixture.
TEST(GoldenQueryTest, ParallelSearchMatchesGoldenByteForByte) {
  const std::string dir =
      std::string(HOS_SOURCE_DIR) + "/tests/integration/testdata";
  auto dataset = data::ReadCsvFile(dir + "/golden.csv");
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  core::HosMinerConfig config;
  config.k = 4;
  config.threshold = 1.1;
  config.seed = 7;
  auto miner = core::HosMiner::Build(std::move(dataset).value(), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  service::ThreadPool search_pool(4);
  core::QueryOptions options;
  options.search_pool = &search_pool;
  auto result = miner->Query(kPlantedId, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  result->outcome.counters.elapsed_seconds = 0.0;

  std::string want = ReadFile(dir + "/golden_result.json");
  while (!want.empty() && (want.back() == '\n' || want.back() == '\r')) {
    want.pop_back();
  }
  EXPECT_EQ(core::QueryResultToJson(*result), want);
}

// The same query on the sparse lattice backend (forced — at d = 4 the
// automatic choice is dense) must also serialise byte-identically:
// storage is an implementation detail, so answers, OD-derived fields AND
// work counters (evaluations, pruning tallies, steps) all match the
// fixture produced by the flat-array backend.
TEST(GoldenQueryTest, SparseLatticeBackendMatchesGoldenByteForByte) {
  const std::string dir =
      std::string(HOS_SOURCE_DIR) + "/tests/integration/testdata";
  auto dataset = data::ReadCsvFile(dir + "/golden.csv");
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  core::HosMinerConfig config;
  config.k = 4;
  config.threshold = 1.1;
  config.seed = 7;
  auto miner = core::HosMiner::Build(std::move(dataset).value(), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  core::QueryOptions options;
  options.lattice_backend = lattice::LatticeBackend::kSparse;
  auto result = miner->Query(kPlantedId, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  result->outcome.counters.elapsed_seconds = 0.0;

  std::string want = ReadFile(dir + "/golden_result.json");
  while (!want.empty() && (want.back() == '\n' || want.back() == '\r')) {
    want.pop_back();
  }
  EXPECT_EQ(core::QueryResultToJson(*result), want);
}

}  // namespace
}  // namespace hos
