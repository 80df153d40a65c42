// The density-bound OD pre-filter: exact kNN calls avoided and end-to-end
// time, FilterMode::{off, conservative}, on the standard planted band-query
// workload. The answers_identical flag must be true (it is a contract,
// enforced by tests/filter/filter_differential_test.cc — the bench reports
// it so the number next to the timing is visibly the exact-answer one), and
// the knn_reduction column is how many exact OD evaluations the bounds made
// unnecessary.
//
// Also keeps the original refinement-filter table (paper §3.4): total
// outlying subspaces vs the minimal set returned.
//
// Writes machine-readable results to BENCH_filter.json (or argv[1]).
// `--smoke` shrinks every workload to a CI-sized run.

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/core/hos_miner.h"
#include "src/eval/report.h"
#include "src/filter/density_filter.h"

namespace {

using namespace hos;  // NOLINT

constexpr size_t kNumPoints = 1200;
constexpr int kBitsPerDim = 6;

size_t NumPoints() { return bench::SmokeSize(kNumPoints, 300); }

struct ModeRow {
  int d = 0;
  std::string mode;
  uint64_t od_evaluations = 0;
  uint64_t bound_decisions = 0;
  double seconds = 0.0;
  bool answers_identical = true;  // vs the kOff run of the same queries
};

/// Sorted answer-mask sets per query, the cross-mode comparison key.
using AnswerSets = std::vector<std::vector<uint64_t>>;

ModeRow RunMode(const core::HosMiner& miner, int d,
                const std::vector<data::PointId>& queries,
                filter::FilterMode mode, const char* name,
                AnswerSets* answers) {
  ModeRow row;
  row.d = d;
  row.mode = name;
  core::QueryOptions options;
  options.filter_mode = mode;
  answers->clear();

  Timer timer;
  for (data::PointId id : queries) {
    auto result = miner.Query(id, options);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    row.od_evaluations += result->outcome.counters.od_evaluations;
    row.bound_decisions += result->outcome.counters.bound_decisions;
    std::vector<uint64_t> masks;
    for (const Subspace& s : result->outlying_subspaces()) {
      masks.push_back(s.mask());
    }
    answers->push_back(std::move(masks));
  }
  row.seconds = timer.ElapsedSeconds();
  return row;
}

void Run(const std::string& json_path) {
  bench::Banner("E12", "density-bound pre-filter: kNN calls avoided");
  eval::Table table({"d", "mode", "od evals", "bound decided",
                     "knn reduction", "time (ms)", "answers identical"});
  std::vector<ModeRow> rows;

  for (int d : bench::SmokeSweep<int>({6, 8, 10})) {
    auto workload = bench::MakeWorkload(NumPoints(), d, /*seed=*/20 + d);
    core::HosMinerConfig config;
    config.seed = 20;
    // The VA-file backend: the filter's summary is the approximation
    // file's own quantization, exported bit-identically. 6-bit cells keep
    // the per-dimension resolution ahead of the band widths at this n.
    config.index = core::IndexKind::kVaFile;
    config.va_file.bits_per_dim = kBitsPerDim;
    auto miner = core::HosMiner::Build(std::move(workload.dataset), config);
    if (!miner.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   miner.status().ToString().c_str());
      return;
    }

    // Band queries: every planted outlier plus a stride of background
    // rows (clear inliers in most subspaces — the filter's best case and
    // the screening path's common case).
    std::vector<data::PointId> queries;
    for (const auto& planted : workload.outliers) queries.push_back(planted.id);
    for (data::PointId id = 0; id < 48; id += 2) queries.push_back(id);

    AnswerSets off_answers, mode_answers;
    ModeRow off = RunMode(*miner, d, queries, filter::FilterMode::kOff, "off",
                          &off_answers);
    rows.push_back(off);

    ModeRow cons = RunMode(*miner, d, queries,
                           filter::FilterMode::kConservative, "conservative",
                           &mode_answers);
    cons.answers_identical = mode_answers == off_answers;
    rows.push_back(cons);

    for (const ModeRow& r : {off, cons}) {
      // A mode that avoided every exact call divides by 1: the printed
      // factor then reads "at least off_evals x".
      const double reduction =
          static_cast<double>(off.od_evaluations) /
          static_cast<double>(std::max<uint64_t>(r.od_evaluations, 1));
      table.AddRow({std::to_string(d), r.mode,
                    std::to_string(r.od_evaluations),
                    std::to_string(r.bound_decisions),
                    r.mode == "off" ? "1.0x"
                                    : eval::FormatDouble(reduction, 2) + "x",
                    eval::FormatDouble(r.seconds * 1e3, 1),
                    r.answers_identical ? "yes" : "no"});
    }
  }
  table.Print();
  std::printf(
      "\nConservative mode must keep answers identical (the exactness\n"
      "contract); its reduction column is pure saved work.\n");

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"filter\",\n  %s,\n  \"smoke\": %s,\n"
               "  \"num_points\": %zu,\n"
               "  \"bits_per_dim\": %d,\n  \"modes\": [\n",
               bench::ProvenanceJsonFields().c_str(),
               bench::SmokeMode() ? "true" : "false", NumPoints(),
               kBitsPerDim);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ModeRow& r = rows[i];
    // The kOff row of the same d precedes its filtered rows by
    // construction.
    uint64_t off_evals = 0;
    for (const ModeRow& other : rows) {
      if (other.d == r.d && other.mode == "off") off_evals = other.od_evaluations;
    }
    const double reduction =
        static_cast<double>(off_evals) /
        static_cast<double>(std::max<uint64_t>(r.od_evaluations, 1));
    std::fprintf(
        f,
        "    {\"d\": %d, \"mode\": \"%s\", \"od_evaluations\": %llu, "
        "\"bound_decisions\": %llu, \"knn_reduction\": %.3f, "
        "\"seconds\": %.6g, \"answers_identical\": %s}%s\n",
        r.d, r.mode.c_str(),
        static_cast<unsigned long long>(r.od_evaluations),
        static_cast<unsigned long long>(r.bound_decisions), reduction,
        r.seconds, r.answers_identical ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  // The original E10 table: the §3.4 result-refinement filter's answer-set
  // compression, unchanged.
  bench::Banner("E10", "refinement filter: total outlying vs minimal");
  eval::Table refinement({"d", "lattice size", "outlying total",
                          "minimal returned", "reduction"});
  for (int d : bench::SmokeSweep<int>({6, 8, 10, 12, 14})) {
    auto workload =
        bench::MakeWorkload(bench::SmokeSize(2000, 400), d, /*seed=*/10 + d);
    const data::PointId query = workload.outliers[0].id;
    core::HosMinerConfig config;
    config.seed = 10;
    auto miner = core::HosMiner::Build(std::move(workload.dataset), config);
    if (!miner.ok()) return;
    auto result = miner->Query(query);
    if (!result.ok()) return;
    const uint64_t total = result->outcome.TotalOutlyingCount();
    const size_t minimal = result->outlying_subspaces().size();
    refinement.AddRow(
        {std::to_string(d), std::to_string((uint64_t{1} << d) - 1),
         std::to_string(total), std::to_string(minimal),
         minimal == 0 ? "-"
                      : eval::FormatDouble(static_cast<double>(total) /
                                               static_cast<double>(minimal),
                                           0) +
                            "x"});
  }
  refinement.Print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ConsumeSmokeFlag(&argc, argv);
  Run(argc > 1 ? argv[1] : "BENCH_filter.json");
  return 0;
}
