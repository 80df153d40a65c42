// Parallel frontier evaluation benchmark: wall-clock of one d=14 dynamic
// subspace search at 1/2/4/8 search threads, all answering identically —
// the speedup column is pure execution, zero semantics. Repeated and
// averaged so the JSON is stable enough to track across PRs.
//
// Writes machine-readable results to BENCH_search.json (or argv[1]).
// hardware_concurrency is recorded alongside: on a 1-core container the
// thread rows cannot beat sequential (there is nothing to fan out onto,
// and the pool adds handoff overhead), so judge the scaling rows only
// when cores >= threads.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/core/threshold.h"
#include "src/eval/report.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/linear_scan.h"
#include "src/learning/learner.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"
#include "src/service/thread_pool.h"

namespace {

using namespace hos;  // NOLINT

constexpr int kK = 5;
size_t NumPoints() { return bench::SmokeSize(1500, 400); }
int NumDims() { return bench::SmokeMode() ? 10 : 14; }
int Repetitions() { return bench::SmokeMode() ? 1 : 3; }

struct Row {
  int threads;        // 1 = sequential (no pool)
  double seconds;     // mean over repetitions
  uint64_t od_evaluations;
  double speedup;     // sequential seconds / this row's seconds
};

void WriteJson(const std::vector<Row>& rows, double threshold,
               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"search_parallel_frontier\",\n"
               "  %s,\n  \"smoke\": %s,\n"
               "  \"num_points\": %zu,\n  \"num_dims\": %d,\n"
               "  \"threshold\": %.6g,\n  \"repetitions\": %d,\n"
               "  \"note\": \"speedup is meaningful only when "
               "hardware_concurrency >= threads (single_core_caveat false); "
               "on fewer cores the pool can only add handoff overhead\",\n"
               "  \"results\": [\n",
               bench::ProvenanceJsonFields().c_str(),
               bench::SmokeMode() ? "true" : "false", NumPoints(), NumDims(),
               threshold, Repetitions());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds\": %.4f, "
                 "\"od_evaluations\": %llu, \"speedup\": %.2f}%s\n",
                 r.threads, r.seconds,
                 static_cast<unsigned long long>(r.od_evaluations), r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

void Run(const std::string& json_path) {
  bench::Banner("S2", "parallel frontier evaluation (dynamic search, d=14)");
  auto workload = bench::MakeWorkload(NumPoints(), NumDims(), /*seed=*/77);
  const data::Dataset& ds = workload.dataset;
  const data::PointId query = workload.outliers[0].id;
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);

  Rng rng(77);
  core::ThresholdOptions threshold_options;
  threshold_options.k = kK;
  // A mid-range T keeps the outlier boundary band wide, so per-level waves
  // are large enough that fanning them out can actually pay.
  threshold_options.percentile = 0.85;
  auto threshold =
      core::EstimateThreshold(ds, engine, threshold_options, &rng);
  if (!threshold.ok()) {
    std::fprintf(stderr, "threshold estimation failed: %s\n",
                 threshold.status().ToString().c_str());
    return;
  }

  learning::LearnerOptions learner_options;
  learner_options.sample_size = 6;
  learner_options.k = kK;
  learner_options.threshold = *threshold;
  auto report =
      learning::LearnPruningPriors(ds, engine, learner_options, &rng);
  search::DynamicSubspaceSearch strategy(NumDims(), report.priors);

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("n=%zu d=%d T=%.3f k=%d, %u hardware threads\n", NumPoints(),
              NumDims(), *threshold, kK, cores);

  std::vector<Row> rows;
  std::vector<Subspace> reference_answer;
  for (int threads : {1, 2, 4, 8}) {
    std::unique_ptr<service::ThreadPool> pool;
    search::SearchExecution exec;
    if (threads > 1) {
      pool = std::make_unique<service::ThreadPool>(threads);
      exec.pool = pool.get();
    }

    Row row{threads, 0.0, 0, 0.0};
    for (int rep = 0; rep < Repetitions(); ++rep) {
      // Fresh evaluator per run: no memo carry-over between rows.
      search::OdEvaluator od(engine, ds.Row(query), kK, query);
      Timer timer;
      auto outcome = strategy.Run(&od, *threshold, exec);
      row.seconds += timer.ElapsedSeconds();
      if (!outcome.ok()) {
        std::fprintf(stderr, "search failed: %s\n",
                     outcome.status().ToString().c_str());
        return;
      }
      row.od_evaluations = outcome->counters.od_evaluations;
      if (reference_answer.empty() && threads == 1) {
        reference_answer = outcome->minimal_outlying_subspaces;
      } else if (outcome->minimal_outlying_subspaces != reference_answer) {
        std::fprintf(stderr, "ANSWER MISMATCH at %d threads\n", threads);
        return;
      }
    }
    row.seconds /= Repetitions();
    rows.push_back(row);
  }
  for (Row& row : rows) row.speedup = rows[0].seconds / row.seconds;

  eval::Table table({"threads", "mean s", "od evals", "speedup"});
  for (const Row& r : rows) {
    table.AddRow({std::to_string(r.threads), eval::FormatDouble(r.seconds, 4),
                  std::to_string(r.od_evaluations),
                  eval::FormatDouble(r.speedup, 2)});
  }
  table.Print();
  std::printf("\nanswer sets identical across all configurations (checked)\n");

  WriteJson(rows, *threshold, json_path);
}

}  // namespace

int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  Run(argc > 1 ? argv[1] : "BENCH_search.json");
  return 0;
}
