// E2: the paper's §3.1 saving-factor machinery. Prints the DSF/USF/TSF
// table (including the worked d=4 example: DSF([1,2,3]) = 9,
// USF([1,4]) = 10) and micro-benchmarks TSF evaluation with
// google-benchmark, since the dynamic search recomputes TSF at every step.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/common/combinatorics.h"
#include "src/eval/report.h"
#include "src/lattice/saving_factors.h"

namespace {

using namespace hos;  // NOLINT

void PrintTables() {
  bench::Banner("E2 (Definitions 1-3)", "saving factors");
  std::printf("Paper worked example (d=4): DSF(m=3) = %llu (paper: 9), "
              "USF(m=2) = %llu (paper: 10)\n\n",
              static_cast<unsigned long long>(DownwardSavingFactor(3)),
              static_cast<unsigned long long>(UpwardSavingFactor(2, 4)));

  for (int d : {4, 8, 12}) {
    eval::Table table({"m", "DSF(m)", "USF(m,d)", "TSF(m) fresh lattice"});
    auto state = lattice::MakeLatticeStore(d).value();
    auto priors = lattice::PruningPriors::Flat(d);
    const lattice::SavingFactorTable tsf(d);
    for (int m = 1; m <= d; ++m) {
      table.AddRow({std::to_string(m),
                    std::to_string(DownwardSavingFactor(m)),
                    std::to_string(UpwardSavingFactor(m, d)),
                    eval::FormatDouble(
                        tsf.TotalSavingFactor(m, priors, *state), 1)});
    }
    std::printf("d = %d (first level chosen by the dynamic search: %d)\n", d,
                tsf.BestLevel(priors, *state));
    table.Print();
    std::printf("\n");
  }
}

void BM_TotalSavingFactor(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  auto lattice_state = lattice::MakeLatticeStore(d).value();
  auto priors = lattice::PruningPriors::Flat(d);
  const lattice::SavingFactorTable tsf(d);
  for (auto _ : state) {
    for (int m = 1; m <= d; ++m) {
      benchmark::DoNotOptimize(
          tsf.TotalSavingFactor(m, priors, *lattice_state));
    }
  }
}
BENCHMARK(BM_TotalSavingFactor)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_BestLevel(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  auto lattice_state = lattice::MakeLatticeStore(d).value();
  auto priors = lattice::PruningPriors::Flat(d);
  const lattice::SavingFactorTable tsf(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsf.BestLevel(priors, *lattice_state));
  }
}
BENCHMARK(BM_BestLevel)->Arg(8)->Arg(16);

}  // namespace

// Smoke mode (--smoke): shrink the table sweeps above and ask
// google-benchmark for a near-zero min time so every registered benchmark
// still executes once (all args here are cheap, no filter needed).
int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  PrintTables();
  std::vector<char*> args(argv, argv + argc);
  char min_time[] = "--benchmark_min_time=0.001";
  if (hos::bench::SmokeMode()) args.push_back(min_time);
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
