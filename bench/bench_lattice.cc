// Lattice-backend benchmark: dense vs sparse storage cost of the lattice
// machinery itself (store construction, frontier enumeration, propagation
// sweeps, tally upkeep) with the kNN layer factored out — verdicts come
// from a synthetic monotone truth, so every measured microsecond is
// lattice bookkeeping.
//
// For each d in {12, 18, 22, 26, 32} and each backend, two frontier-band
// scenarios are driven through the same BestLevel/UndecidedMasks/
// MarkEvaluated/Propagate loop the dynamic search runs:
//
//   * outlier_band — every subspace outlying: the search evaluates the
//     full space and the d singletons, and one propagation decides the
//     remaining 2^d - d - 2 subspaces (the dense backend intersects its
//     undecided bitset with the seed closures word by word; the sparse
//     backend recounts levels by enumeration or closed form).
//   * inlier — nothing outlying: one full-space evaluation, one downward
//     propagation deciding everything.
//
// Those two take one or two steps, so they show construction and a single
// sweep but not per-step propagation cost. A third, multi-step scenario
// runs on the dense backend only:
//
//   * planted — a subspace is outlying iff it contains one of four fixed
//     pseudo-random subspaces of max(2, d/4) dimensions, so the walk needs
//     many level steps, each ending in a Propagate over a partly decided
//     lattice. (Its mid levels hold C(d, d/2) masks, which the sparse
//     backend would have to enumerate per step past d = 22.)
//
// The dense backend is reported "unsupported" past its d = 22 cap — that
// is the point of the sparse backend. Peak memory is approximated as the
// VmRSS delta across each case (allocator reuse and arena caching make
// this a floor, not an exact per-case figure; VmHWM for the whole process
// is recorded alongside).
//
// Writes machine-readable results to BENCH_lattice.json (or argv[1]).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/lattice/saving_factors.h"

namespace {

using namespace hos;  // NOLINT

int Repetitions() { return bench::SmokeMode() ? 1 : 3; }

long ReadStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long value = -1;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      value = std::atol(line + key_len + 1);
      break;
    }
  }
  std::fclose(f);
  return value;
}

enum class Scenario { kOutlierBand, kInlier, kPlanted };

const char* ScenarioName(Scenario scenario) {
  switch (scenario) {
    case Scenario::kOutlierBand: return "outlier_band";
    case Scenario::kInlier: return "inlier";
    case Scenario::kPlanted: return "planted";
  }
  return "";
}

/// The planted scenario's outlier generators: four fixed pseudo-random
/// subspaces of max(2, d/4) dimensions each.
std::vector<uint64_t> PlantedSeeds(int d) {
  Rng rng(7);
  std::vector<uint64_t> seeds;
  for (int i = 0; i < 4; ++i) {
    uint64_t seed = 0;
    for (size_t dim : rng.SampleWithoutReplacement(d, std::max(2, d / 4))) {
      seed |= uint64_t{1} << dim;
    }
    seeds.push_back(seed);
  }
  return seeds;
}

struct CaseResult {
  int d = 0;
  std::string backend;
  std::string scenario;
  bool supported = false;
  double seconds = 0.0;       // mean over repetitions
  uint64_t od_evaluations = 0;
  uint64_t steps = 0;
  long rss_delta_kb = 0;      // max over repetitions
};

/// One full synthetic dynamic-search drive; truth is monotone by
/// construction (everything outlying, nothing, or the up-closure of the
/// planted seeds).
CaseResult Drive(int d, lattice::LatticeBackend backend, Scenario scenario) {
  CaseResult result;
  result.d = d;
  result.backend =
      backend == lattice::LatticeBackend::kDense ? "dense" : "sparse";
  result.scenario = ScenarioName(scenario);
  const auto priors = lattice::PruningPriors::Flat(d);
  const std::vector<uint64_t> planted = PlantedSeeds(d);
  auto outlying = [&](uint64_t mask) {
    switch (scenario) {
      case Scenario::kOutlierBand: return true;
      case Scenario::kInlier: return false;
      case Scenario::kPlanted:
        return std::any_of(planted.begin(), planted.end(), [&](uint64_t s) {
          return (mask & s) == s;
        });
    }
    return false;
  };

  double total_seconds = 0.0;
  for (int rep = 0; rep < Repetitions(); ++rep) {
    const long rss_before = ReadStatusKb("VmRSS:");
    Timer timer;
    auto made = lattice::MakeLatticeStore(d, backend);
    if (!made.ok()) return result;  // supported stays false
    lattice::LatticeStore& state = *made.value();
    const lattice::SavingFactorTable tsf(d);
    uint64_t evals = 0, steps = 0;
    while (true) {
      const int m = tsf.BestLevel(priors, state);
      if (m == 0) break;
      for (uint64_t mask : state.UndecidedMasks(m)) {
        state.MarkEvaluated(Subspace(mask), outlying(mask));
        ++evals;
      }
      state.Propagate();
      ++steps;
    }
    total_seconds += timer.ElapsedSeconds();
    const long rss_after = ReadStatusKb("VmRSS:");
    if (rss_before >= 0 && rss_after >= 0) {
      result.rss_delta_kb =
          std::max(result.rss_delta_kb, rss_after - rss_before);
    }
    result.od_evaluations = evals;
    result.steps = steps;
  }
  result.supported = true;
  result.seconds = total_seconds / Repetitions();
  return result;
}

void WriteJson(const std::vector<CaseResult>& cases, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"lattice_backends\",\n"
      "  %s,\n  \"smoke\": %s,\n"
      "  \"repetitions\": %d,\n"
      "  \"vm_hwm_kb\": %ld,\n"
      "  \"note\": \"Pure lattice machinery (synthetic monotone verdicts, "
      "no kNN). rss_delta_kb is the VmRSS delta across a case — a floor on "
      "per-case peak memory, since the allocator reuses freed arenas "
      "(vm_hwm_kb is the process-wide high-water mark). Wall times are "
      "single-threaded by construction, so the core count does not affect "
      "them, but absolute numbers carry the host's CPU variance. Only the "
      "planted scenario takes more than two propagation steps.\",\n"
      "  \"cases\": [\n",
      bench::ProvenanceJsonFields().c_str(),
      bench::SmokeMode() ? "true" : "false", Repetitions(),
      ReadStatusKb("VmHWM:"));
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    if (c.supported) {
      std::fprintf(
          f,
          "    {\"d\": %d, \"backend\": \"%s\", \"scenario\": \"%s\", "
          "\"supported\": true, \"seconds\": %.6f, \"od_evaluations\": "
          "%llu, \"steps\": %llu, \"rss_delta_kb\": %ld}",
          c.d, c.backend.c_str(), c.scenario.c_str(), c.seconds,
          static_cast<unsigned long long>(c.od_evaluations),
          static_cast<unsigned long long>(c.steps), c.rss_delta_kb);
    } else {
      std::fprintf(f,
                   "    {\"d\": %d, \"backend\": \"%s\", \"scenario\": "
                   "\"%s\", \"supported\": false}",
                   c.d, c.backend.c_str(), c.scenario.c_str());
    }
    std::fprintf(f, "%s\n", i + 1 == cases.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

void Run(const std::string& path) {
  bench::Banner("lattice", "dense vs sparse lattice backends across d");
  std::vector<CaseResult> cases;
  for (int d : bench::SmokeSweep<int>({12, 18, 22, 26, 32})) {
    for (lattice::LatticeBackend backend :
         {lattice::LatticeBackend::kDense, lattice::LatticeBackend::kSparse}) {
      for (Scenario scenario :
           {Scenario::kOutlierBand, Scenario::kInlier, Scenario::kPlanted}) {
        if (scenario == Scenario::kPlanted &&
            backend != lattice::LatticeBackend::kDense) {
          continue;
        }
        CaseResult c = Drive(d, backend, scenario);
        if (c.supported) {
          std::printf(
              "d=%2d %-6s %-12s %8.3f ms  evals=%llu steps=%llu "
              "rss+%ldkB\n",
              c.d, c.backend.c_str(), c.scenario.c_str(), c.seconds * 1e3,
              static_cast<unsigned long long>(c.od_evaluations),
              static_cast<unsigned long long>(c.steps), c.rss_delta_kb);
        } else {
          std::printf("d=%2d %-6s %-12s unsupported (backend cap)\n", c.d,
                      c.backend.c_str(), c.scenario.c_str());
        }
        cases.push_back(std::move(c));
      }
    }
  }
  WriteJson(cases, path);
}

}  // namespace

int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  Run(argc > 1 ? argv[1] : "BENCH_lattice.json");
  return 0;
}
