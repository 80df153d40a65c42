// hos_e2e: the end-to-end benchmark of service::QueryService.
//
//   hos_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--details <path>] [--source-id <id>]
//   hos_e2e --counts --workload <name> --seed <n>
//
// Drives a QueryService from outside, in one process, over three workloads
// (see README.md next to this file for why each exists):
//
//   lookup_uniform  n=100k d=8, ids from a seeded permutation, the OD cache
//                   emptied whenever the permutation starts over
//   explain_hot     n=20k d=12, Zipf-skewed ids over planted outliers,
//                   OD cache warmed by one pass before timing
//   window_ingest   n=20k d=8 sliding window; one open-loop generator
//                   appends 256 rows every 200 ms while the client reads
//
// Every workload runs the default HosMinerConfig / QueryServiceConfig
// except num_threads = 1 and search_threads = 1 (plus the window size on
// window_ingest). One closed-loop client thread sends a 16-id QueryBatch
// and waits for the reply before sending the next, so one thread is busy.
//
// --trace 0 measures the end-to-end metrics with no tracing at all: set-up
// and request costs in CPU time, which a shared host's other tenants barely
// move, scaled to a reference host speed timed during the run; the
// unscaled and wall-clock figures are printed and kept in the details file.
// --trace 1 alternates untraced and traced half-second slices (the ratio of
// their throughputs is the cost of the outside-in spans), then replays
// every traced block below the service on a replica miner — the
// BatchFrontierRunner call HosMiner::QueryBatchFused makes, over wrappers of
// the kNN engine and the OD cache — and requires the replayed answers to be
// bitwise identical to the service's. The per-layer metrics come from those
// spans and counts, and from the set-up and ingest steps timed on the
// replica.
//
// --counts replays a fixed request sequence with one client and no service
// threads and prints the per-layer work counts, which repeat exactly.
//
// Every run compares a sample of answers with a linear-scan HosMiner
// oracle at the same threshold. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
// is 0 only when every operation succeeded and every answer checked out.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "e2ebench/tracing.h"
#include "src/core/hos_miner.h"
#include "src/core/threshold.h"
#include "src/data/generator.h"
#include "src/data/normalizer.h"
#include "src/filter/density_summary.h"
#include "src/index/xtree.h"
#include "src/kernels/dataset_view.h"
#include "src/learning/learner.h"
#include "src/search/batch_frontier.h"
#include "src/service/query_service.h"

namespace hos::e2e {
namespace {

constexpr size_t kRequestIds = 16;
constexpr int kServiceThreads = 1;
constexpr int kSetupRepeats = 7;
constexpr size_t kLookupRows = 100000;
constexpr size_t kHotRows = 20000;
constexpr int kHotOutliersPerSubspace = 32;
constexpr size_t kWindowRows = 20000;
constexpr size_t kAppendRows = 256;
constexpr int64_t kAppendPeriodNs = 200'000'000;
constexpr int64_t kSliceNs = 500'000'000;
constexpr int64_t kReferencePeriodNs = 250'000'000;
constexpr size_t kOracleQueries = 256;
constexpr int kProbeBatches = 8;
constexpr int kRebuildProbes = 3;
constexpr size_t kCountBlocks = 64;
/// Seed of the generated rows (and of explain_hot's popularity ranking).
/// They are the same on every run so that runs at different --seed values
/// measure the same data; --seed drives the request streams (which ids are
/// asked for, in which order).
constexpr uint64_t kDataSeed = 2004;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "hos_e2e: %s\n", message.c_str());
  std::exit(2);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// CPU time used so far by every thread of this process. It does not grow
/// while a thread waits for a core, so it is the work done, not the wait.
int64_t ProcessCpuNs() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

/// A fixed amount of reference work, timed in thread CPU time: how fast
/// the host runs code right now. The speed of a shared VM's cores drifts by
/// 20-30% over minutes (other guests of the physical host, clock changes),
/// and CPU time moves with it. The reference is the geometric mean of an
/// ALU-only xorshift chain and a chain of dependent loads over a 4 MiB
/// table (L2 misses, L3 hits), the two kinds of work the service does.
class HostReference {
 public:
  HostReference() : table_(1 << 19) {
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint64_t& v : table_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x & (table_.size() - 1);
    }
  }

  /// One timing of the reference work, in ms.
  double SampleMs() const {
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    int64_t t0 = ThreadCpuNs();
    for (int i = 0; i < 1'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const double alu_ms = Ms(ThreadCpuNs() - t0);
    uint64_t j = x & (table_.size() - 1);
    t0 = ThreadCpuNs();
    for (int i = 0; i < 100'000; ++i) j = table_[j];
    const double load_ms = Ms(ThreadCpuNs() - t0);
    asm volatile("" : : "r"(x), "r"(j));  // keep both chains alive
    return std::sqrt(alu_ms * load_ms);
  }

 private:
  std::vector<uint64_t> table_;
};

/// The reference's median on the 4-vCPU Xeon VM the benchmark was sized
/// on. The gated CPU figures are scaled to this host speed.
constexpr double kNominalReferenceMs = 1.2;

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The q-th percentile of each run of `part` consecutive values (fills
/// `parts`) and their median; the whole-sample percentile when there are
/// fewer than `part` values.
double PartsPercentile(const std::vector<double>& values, size_t part,
                       double q, std::vector<double>* parts) {
  parts->clear();
  for (size_t i = 0; i + part <= values.size(); i += part) {
    parts->push_back(Percentile(
        std::vector<double>(values.begin() + i, values.begin() + i + part),
        q));
  }
  return parts->empty() ? Percentile(values, q) : Median(*parts);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Wall time of each step of a run, reported on stderr as it ends.
class PhaseLog {
 public:
  void End(const std::string& phase) {
    const int64_t now = NowNs();
    const double seconds = static_cast<double>(now - last_ns_) / 1e9;
    last_ns_ = now;
    phases_.emplace_back(phase, seconds);
    std::fprintf(stderr, "hos_e2e: %-12s %.3f s\n", phase.c_str(), seconds);
  }
  const std::vector<std::pair<std::string, double>>& phases() const {
    return phases_;
  }

 private:
  int64_t last_ns_ = NowNs();
  std::vector<std::pair<std::string, double>> phases_;
};

// ---------------------------------------------------------------------------
// Small JSON object builder (flat keys, numbers / strings / nested raw).
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Array(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? ", " : "",
                    values[i]);
      out += buf;
    }
    return Raw(key, out + "]");
  }
  Json& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Kind { kLookupUniform, kExplainHot, kWindowIngest };

struct Workload {
  Kind kind = Kind::kLookupUniform;
  std::string name;
  /// Raw rows the service is built over.
  data::Dataset data{1};
  /// window_ingest: append batches, in send order.
  std::vector<std::vector<std::vector<double>>> stream;
  /// lookup_uniform: the id permutation. explain_hot: planted outlier ids
  /// in Zipf rank order (zipf_cdf[i] = weight of ranks 0..i).
  std::vector<data::PointId> ids;
  std::vector<double> zipf_cdf;
  service::QueryServiceConfig service_config;
};

data::Dataset DatasetFromRows(int num_dims,
                              const std::vector<std::vector<double>>& rows) {
  data::Dataset out(num_dims);
  for (const std::vector<double>& row : rows) out.Append(row);
  return out;
}

/// `stream_batches` is only used by window_ingest: how many 256-row append
/// batches to generate beyond the initial window.
Workload MakeWorkload(const std::string& name, uint64_t seed,
                      size_t stream_batches) {
  Workload w;
  w.name = name;
  w.service_config.num_threads = kServiceThreads;
  w.service_config.search_threads = 1;
  if (name == "lookup_uniform") {
    w.kind = Kind::kLookupUniform;
    // MakeWorkload plants 2 outliers after the background rows.
    w.data = bench::MakeWorkload(kLookupRows - 2, 8, kDataSeed).dataset;
    w.ids.resize(w.data.size());
    for (size_t i = 0; i < w.ids.size(); ++i) w.ids[i] = i;
    Rng rng(seed ^ 0x5bd1e995ULL);
    rng.Shuffle(&w.ids);
  } else if (name == "explain_hot") {
    w.kind = Kind::kExplainHot;
    Rng rng(kDataSeed);
    data::SubspaceOutlierSpec spec;
    spec.num_dims = 12;
    spec.planted_subspaces = {Subspace::FromOneBased({1, 2}),
                              Subspace::FromOneBased({3, 4, 5}),
                              Subspace::FromOneBased({6, 7, 8})};
    spec.outliers_per_subspace = kHotOutliersPerSubspace;
    spec.num_points =
        kHotRows - spec.planted_subspaces.size() * kHotOutliersPerSubspace;
    spec.displacement = 0.6;
    auto generated = data::GenerateSubspaceOutliers(spec, &rng);
    if (!generated.ok()) Die(generated.status().ToString());
    w.data = std::move(generated->dataset);
    for (const data::PlantedOutlier& o : generated->outliers) {
      w.ids.push_back(o.id);
    }
    Rng order(kDataSeed ^ 0x27d4eb2fULL);
    order.Shuffle(&w.ids);
    double total = 0.0;
    for (size_t r = 0; r < w.ids.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      w.zipf_cdf.push_back(total);
    }
  } else if (name == "window_ingest") {
    w.kind = Kind::kWindowIngest;
    w.service_config.ingest.window_max_rows = kWindowRows;
    // One draw of the planted distribution: the first rows (plus the two
    // planted outliers, which MakeWorkload places last) form the initial
    // window, the remaining background rows become the append stream.
    const size_t background = kWindowRows - 2 + stream_batches * kAppendRows;
    const data::Dataset all =
        bench::MakeWorkload(background, 8, kDataSeed).dataset;
    std::vector<std::vector<double>> initial;
    initial.reserve(kWindowRows);
    for (data::PointId id = 0; id < kWindowRows - 2; ++id) {
      initial.push_back(all.RowCopy(id));
    }
    initial.push_back(all.RowCopy(background));
    initial.push_back(all.RowCopy(background + 1));
    w.data = DatasetFromRows(8, initial);
    for (size_t b = 0; b < stream_batches; ++b) {
      std::vector<std::vector<double>> batch;
      batch.reserve(kAppendRows);
      for (size_t i = 0; i < kAppendRows; ++i) {
        batch.push_back(all.RowCopy(kWindowRows - 2 + b * kAppendRows + i));
      }
      w.stream.push_back(std::move(batch));
    }
  } else {
    Die("unknown workload '" + name +
        "' (expected lookup_uniform, explain_hot or window_ingest)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Answer comparison.
// ---------------------------------------------------------------------------

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

std::vector<uint64_t> Masks(const std::vector<Subspace>& subspaces) {
  std::vector<uint64_t> masks;
  masks.reserve(subspaces.size());
  for (const Subspace& s : subspaces) masks.push_back(s.mask());
  return masks;
}

/// Replay check: the whole answer, evaluation order included, bitwise.
bool SameOutcome(const search::SearchOutcome& a,
                 const search::SearchOutcome& b) {
  return a.num_dims == b.num_dims &&
         std::bit_cast<uint64_t>(a.threshold) ==
             std::bit_cast<uint64_t>(b.threshold) &&
         Masks(a.minimal_outlying_subspaces) ==
             Masks(b.minimal_outlying_subspaces) &&
         Masks(a.evaluated_outliers) == Masks(b.evaluated_outliers) &&
         SameDoubles(a.outlier_fraction, b.outlier_fraction);
}

/// Oracle check: the answer set and per-level fractions, bitwise. (The
/// oracle learns no priors, so its evaluation order may differ.)
bool SameAnswer(const search::SearchOutcome& a,
                const search::SearchOutcome& b) {
  std::vector<uint64_t> ma = Masks(a.minimal_outlying_subspaces);
  std::vector<uint64_t> mb = Masks(b.minimal_outlying_subspaces);
  std::sort(ma.begin(), ma.end());
  std::sort(mb.begin(), mb.end());
  return ma == mb && SameDoubles(a.outlier_fraction, b.outlier_fraction);
}

// ---------------------------------------------------------------------------
// Replay below the service.
// ---------------------------------------------------------------------------

/// What the replay accumulates.
struct ReplayTotals {
  SpanLog log;
  BoundaryCounts counts;
  uint64_t blocks = 0;
  uint64_t queries = 0;
  uint64_t od_evaluations = 0;
  uint64_t steps = 0;
  uint64_t pruned = 0;
  double pruned_frac_sum = 0.0;
  uint64_t mismatches = 0;
};

/// Replays one QueryBatch block exactly as HosMiner::QueryBatchFused runs
/// it inside the service (default QueryServiceConfig: no search pool,
/// filter off, no ordering or gate, OD cache bound to the block's version),
/// with the kNN engine and the OD cache wrapped. Returns the "replay" span
/// index. `expected` (optional) holds the service's answers for the block.
int32_t ReplayBlock(const core::HosMiner& miner, service::OdCache* cache,
                    uint64_t request, std::span<const data::PointId> ids,
                    uint64_t version,
                    const std::vector<core::QueryResult>* expected,
                    ReplayTotals* totals) {
  SpanLog* log = &totals->log;
  const int32_t block_span = log->Open("replay", request, -1);
  TimedKnn knn(miner.engine(), &totals->counts);
  TimedStore store(cache, version, &totals->counts);
  std::vector<search::OdEvaluator> evaluators;
  evaluators.reserve(ids.size());
  std::vector<search::OdEvaluator*> pointers;
  for (data::PointId id : ids) {
    evaluators.emplace_back(knn, miner.dataset().Row(id), miner.config().k, id,
                            &store);
  }
  for (search::OdEvaluator& od : evaluators) pointers.push_back(&od);
  search::SearchExecution exec;
  exec.filter = miner.density_filter();
  const int32_t search_span = log->Open("search", request, block_span);
  t_trace = {log, request, search_span};
  std::vector<Result<search::SearchOutcome>> outcomes =
      search::BatchFrontierRunner(miner.num_dims(), &miner.priors())
          .Run(pointers, miner.threshold(), exec);
  t_trace = {};
  log->Close(search_span);
  log->Close(block_span);

  const double lattice_size =
      std::ldexp(1.0, miner.num_dims()) - 1.0;  // 2^d - 1 subspaces
  ++totals->blocks;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ++totals->queries;
    if (!outcomes[i].ok()) {
      ++totals->mismatches;
      continue;
    }
    const search::SearchCounters& c = outcomes[i]->counters;
    totals->od_evaluations += c.od_evaluations;
    totals->steps += c.steps;
    totals->pruned += c.pruned_upward + c.pruned_downward;
    totals->pruned_frac_sum +=
        static_cast<double>(c.pruned_upward + c.pruned_downward) / lattice_size;
    if (expected != nullptr &&
        (version != miner.version() ||
         !SameOutcome(*outcomes[i], (*expected)[i].outcome))) {
      ++totals->mismatches;
    }
  }
  return block_span;
}

/// Backend work counters of an engine, as a difference of two snapshots.
struct EngineDelta {
  uint64_t distance_computations = 0;
  uint64_t node_accesses = 0;
  uint64_t kernel_scans = 0;
  uint64_t scalar_scans = 0;
  uint64_t delta_merges = 0;

  void AddDiff(const knn::KnnBackendStats& after,
               const knn::KnnBackendStats& before) {
    distance_computations +=
        after.distance_computations - before.distance_computations;
    node_accesses += after.node_accesses - before.node_accesses;
    kernel_scans += after.kernel_scans - before.kernel_scans;
    scalar_scans += after.scalar_scans - before.scalar_scans;
    delta_merges += after.delta_merges - before.delta_merges;
  }
};

/// A miner built from the same data as the service's, mutated only by the
/// thread that owns it. Appends follow QueryService::AppendBatch (commit,
/// window eviction, then a rebuild whenever the service's default policy
/// would start one), so on window_ingest it can walk the service's append
/// log version by version; each step is timed.
struct Replica {
  explicit Replica(core::HosMiner built) : miner(std::move(built)) {}

  core::HosMiner miner;
  std::optional<filter::DensitySummary> summary;  // standalone tallies
  data::PointId oldest = 0;                       // FIFO eviction cursor
  std::vector<double> commit_us;  // PrepareAppend + CommitAppend + evict
  std::vector<double> tally_us;   // DensitySummary ApplyAppend + ApplyDelete
  uint64_t rebuilds = 0;
  /// kNN backend work since StartCounting, across rebuilds (a rebuild
  /// replaces the engine, whose counters then start again from zero).
  EngineDelta banked;
  knn::KnnBackendStats mark;

  void StartCounting() {
    banked = {};
    mark = miner.engine().backend_stats();
  }
  EngineDelta CountedWork() const {
    EngineDelta work = banked;
    work.AddDiff(miner.engine().backend_stats(), mark);
    return work;
  }

  /// Applies one append batch the way QueryService::AppendBatch does.
  /// Returns the version after the commit.
  uint64_t Append(const std::vector<std::vector<double>>& rows,
                  size_t window) {
    if (!summary.has_value()) {
      summary = filter::DensitySummary::Build(
          miner.dataset(), miner.config().va_file.bits_per_dim);
    }
    const int64_t t0 = NowNs();
    auto prepared = miner.PrepareAppend(rows);
    if (!prepared.ok()) Die("replica append: " + prepared.status().ToString());
    miner.CommitAppend(std::move(prepared).value());
    size_t evicted = 0;
    if (window > 0 && miner.live_rows() > window) {
      evicted = miner.EvictOldest(miner.live_rows() - window);
    }
    const int64_t t1 = NowNs();
    std::vector<data::PointId> gone(evicted);
    for (size_t i = 0; i < evicted; ++i) gone[i] = oldest + i;
    oldest += evicted;
    summary->ApplyAppend(miner.dataset());
    summary->ApplyDelete(miner.dataset(), gone);
    const int64_t t2 = NowNs();
    commit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    tally_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    // The service's default IngestConfig rebuild policy.
    const service::IngestConfig policy;
    const size_t churn =
        miner.delta_rows() + miner.dataset().unsealed_tombstones();
    if (churn >= policy.min_delta_rows &&
        miner.churn_fraction() > policy.rebuild_delta_fraction) {
      banked.AddDiff(miner.engine().backend_stats(), mark);
      if (!miner.Rebuild().ok()) Die("replica rebuild failed");
      mark = miner.engine().backend_stats();
      ++rebuilds;
    }
    return miner.version();
  }
};

core::HosMiner BuildMiner(data::Dataset data, core::HosMinerConfig config) {
  auto miner = core::HosMiner::Build(std::move(data), config);
  if (!miner.ok()) Die("HosMiner::Build: " + miner.status().ToString());
  return std::move(miner).value();
}

// ---------------------------------------------------------------------------
// Live run against the service.
// ---------------------------------------------------------------------------

/// The ids of each request, drawn the workload's way.
class IdStream {
 public:
  explicit IdStream(const Workload& w) : w_(w) {}

  /// Fills `ids` with the next request's ids. `newest` is the current
  /// dataset size (window_ingest draws from the newest half of the window
  /// below it). Returns true when lookup_uniform's permutation has run out
  /// and starts over with this request.
  bool Next(Rng* rng, size_t newest, std::vector<data::PointId>* ids) {
    ids->clear();
    switch (w_.kind) {
      case Kind::kLookupUniform: {
        const bool wrapped = cursor_ + kRequestIds > w_.ids.size();
        if (wrapped) cursor_ = 0;
        ids->assign(w_.ids.begin() + cursor_,
                    w_.ids.begin() + cursor_ + kRequestIds);
        cursor_ += kRequestIds;
        return wrapped;
      }
      case Kind::kExplainHot: {
        const double total = w_.zipf_cdf.back();
        for (size_t i = 0; i < kRequestIds; ++i) {
          const auto it = std::lower_bound(w_.zipf_cdf.begin(),
                                           w_.zipf_cdf.end(),
                                           rng->Uniform(0.0, total));
          ids->push_back(w_.ids[std::min<size_t>(it - w_.zipf_cdf.begin(),
                                                 w_.ids.size() - 1)]);
        }
        return false;
      }
      case Kind::kWindowIngest: {
        // The newest half is kWindowRows / 2 rows away from eviction:
        // dozens of appends, far longer than any request takes.
        const size_t half = kWindowRows / 2;
        for (size_t i = 0; i < kRequestIds; ++i) {
          ids->push_back(newest - half +
                         static_cast<size_t>(rng->UniformInt(0, half - 1)));
        }
        return false;
      }
    }
    return false;
  }

 private:
  const Workload& w_;
  size_t cursor_ = 0;
};

struct RequestRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Process CPU time spent across the call (the client waits while the
  /// service's worker runs the request, so this is the request's own work).
  int64_t cpu_ns = 0;
  uint32_t ids = 0;
  bool ok = false;
};

struct BlockRecord {
  uint64_t request = 0;
  /// lookup_uniform: the pass over the permutation the block belongs to.
  uint32_t pass = 0;
  std::vector<data::PointId> ids;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t version = 0;
  std::vector<core::QueryResult> answers;
};

struct AppendRecord {
  size_t batch = 0;
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t version = 0;
  bool ok = false;
};

struct ClientLog {
  std::vector<RequestRecord> requests;
  std::vector<BlockRecord> traced;   // blocks sent in traced slices
  std::vector<BlockRecord> sampled;  // answers kept for the oracle check
};

class LiveRun {
 public:
  LiveRun(const Workload& w, service::QueryService* service, uint64_t seed,
          bool traced)
      : w_(w), service_(service), seed_(seed), traced_(traced) {}

  /// Runs the client (and the generator) through a warm-up and a timed
  /// phase of `seconds`, then stops and joins every thread.
  void Run(double seconds, double warmup_seconds) {
    committed_rows_ = w_.data.size();
    std::vector<std::thread> threads;
    if (w_.kind == Kind::kWindowIngest) {
      threads.emplace_back([this] { Generator(); });
    }
    threads.emplace_back([this] { Client(); });
    SleepFor(warmup_seconds);
    phase_start_ns_ = NowNs();
    const int64_t deadline =
        phase_start_ns_ + static_cast<int64_t>(seconds * 1e9);
    // The otherwise idle main thread times the host reference four times
    // a second (~1% of one core).
    const HostReference reference;
    int64_t next_sample = phase_start_ns_;
    while (NowNs() < deadline) {
      if (NowNs() >= next_sample) {
        reference_ms_.push_back(reference.SampleMs());
        next_sample += kReferencePeriodNs;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    phase_end_ns_ = std::min(NowNs(), deadline);
    stop_ = true;
    for (std::thread& t : threads) t.join();
  }

  int64_t phase_start_ns() const { return phase_start_ns_; }
  int64_t phase_end_ns() const { return phase_end_ns_; }
  const ClientLog& client() const { return client_; }
  const std::vector<double>& reference_ms() const { return reference_ms_; }
  const std::vector<AppendRecord>& appends() const { return appends_; }
  bool stream_exhausted() const { return stream_exhausted_; }

  bool InPhase(int64_t t) const {
    return t >= phase_start_ns_ && t < phase_end_ns_;
  }
  /// Traced runs alternate untraced (even) and traced (odd) slices.
  static bool TracedSlice(int64_t t, int64_t phase_start) {
    return ((t - phase_start) / kSliceNs) % 2 == 1;
  }

 private:
  static void SleepFor(double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }

  void Client() {
    ClientLog& log = client_;
    log.requests.reserve(1 << 16);
    Rng rng(seed_ * 1000003ULL + 1);
    std::vector<data::PointId> ids;
    uint64_t seq = 0;
    uint32_t pass = 0;
    while (!stop_.load()) {
      if (ids_.Next(&rng, committed_rows_.load(), &ids)) {
        // A new pass over lookup_uniform's permutation: empty the OD cache
        // so that it misses as on the first pass. The service hands out its
        // cache read-only; the harness owns the service, and no request is
        // in flight between two of the client's requests.
        const_cast<service::OdCache*>(service_->cache())->Clear();
        ++pass;
      }
      const int64_t c0 = ProcessCpuNs();
      const int64_t t0 = NowNs();
      Result<std::vector<core::QueryResult>> results =
          service_->QueryBatch(ids);
      const int64_t t1 = NowNs();
      const int64_t c1 = ProcessCpuNs();
      const bool ok = results.ok() && results->size() == ids.size();
      log.requests.push_back(
          {t0, t1, c1 - c0, static_cast<uint32_t>(ids.size()), ok});
      const uint64_t request = ++seq;
      const int64_t start = phase_start_ns_.load();
      if (!ok || start == 0 || t0 < start) continue;
      const bool traced = traced_ && TracedSlice(t0, start);
      // window_ingest is oracle-checked after the run instead.
      const bool sample =
          !traced && w_.kind != Kind::kWindowIngest && seq % 8 == 0 &&
          log.sampled.size() < kOracleQueries / kRequestIds;
      if (traced || sample) {
        BlockRecord block{request, pass, ids, t0, t1,
                          (*results)[0].dataset_version,
                          std::move(results).value()};
        (traced ? log.traced : log.sampled).push_back(std::move(block));
      }
    }
  }

  void Generator() {
    const int64_t base = NowNs();
    appends_.reserve(w_.stream.size());
    for (size_t i = 0; !stop_.load(); ++i) {
      if (i >= w_.stream.size()) {
        stream_exhausted_ = true;
        return;
      }
      const int64_t due = base + static_cast<int64_t>(i) * kAppendPeriodNs;
      while (NowNs() < due && !stop_.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::max<int64_t>(1, std::min<int64_t>(2000, (due - NowNs()) / 1000))));
      }
      if (stop_.load()) return;
      const int64_t t0 = NowNs();
      Result<uint64_t> version = service_->AppendBatch(w_.stream[i]);
      const int64_t t1 = NowNs();
      appends_.push_back(
          {i, due, t0, t1, version.ok() ? *version : 0, version.ok()});
      if (version.ok()) committed_rows_ += w_.stream[i].size();
    }
  }

  const Workload& w_;
  service::QueryService* service_;
  uint64_t seed_;
  bool traced_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> phase_start_ns_{0};
  int64_t phase_end_ns_ = 0;
  IdStream ids_{w_};
  std::atomic<size_t> committed_rows_{0};
  bool stream_exhausted_ = false;
  ClientLog client_;
  std::vector<double> reference_ms_;
  std::vector<AppendRecord> appends_;
};

// ---------------------------------------------------------------------------
// Host measurements.
// ---------------------------------------------------------------------------

/// One-minute host load average; -1 when unavailable.
double LoadAverage() {
  double load[1] = {-1.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

// ---------------------------------------------------------------------------
// The benchmark run.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool counts = false;
  std::string details;
  std::string source_id = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--counts") {
      args.counts = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--details") {
      args.details = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Die("--workload is required");
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  return args;
}

/// Builds the served stack kSetupRepeats times from the same data and keeps
/// the last; fills the CPU and wall seconds of each build.
std::unique_ptr<service::QueryService> SetUpService(
    const Workload& w, std::vector<double>* cpu_s, std::vector<double>* wall_s) {
  std::unique_ptr<service::QueryService> service;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    data::Dataset copy = w.data;
    const int64_t c0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    service = std::make_unique<service::QueryService>(
        BuildMiner(std::move(copy), core::HosMinerConfig{}),
        w.service_config);
    wall_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    cpu_s->push_back(static_cast<double>(ProcessCpuNs() - c0) / 1e9);
  }
  return service;
}

/// Oracle check of sampled answers: a linear-scan miner over the same
/// (normalized) rows and the same threshold. Returns mismatches; adds the
/// number of answers checked to *checked.
uint64_t OracleCheck(const Workload& w, service::QueryService* service,
                     const LiveRun& live, uint64_t seed, uint64_t* checked) {
  core::HosMinerConfig oracle_config;
  oracle_config.index = core::IndexKind::kLinearScan;
  oracle_config.threshold = service->miner().threshold();
  oracle_config.sample_size = 0;  // priors only steer order; answers agree
  uint64_t mismatches = 0;
  if (w.kind != Kind::kWindowIngest) {
    std::map<data::PointId, const core::QueryResult*> sample;
    for (const auto* blocks : {&live.client().sampled, &live.client().traced}) {
      for (const BlockRecord& b : *blocks) {
        for (size_t i = 0; i < b.ids.size(); ++i) {
          if (sample.size() >= kOracleQueries) break;
          sample.emplace(b.ids[i], &b.answers[i]);
        }
      }
    }
    const core::HosMiner oracle = BuildMiner(w.data, oracle_config);
    for (const auto& [id, answer] : sample) {
      auto expect = oracle.Query(id);
      ++*checked;
      if (!expect.ok() || !SameAnswer(expect->outcome, answer->outcome)) {
        ++mismatches;
      }
    }
    return mismatches;
  }
  // window_ingest: after the run, against an oracle built on the surviving
  // normalized rows (no second normalization).
  service->WaitForRebuilds();
  const data::Dataset& served = service->miner().dataset();
  std::vector<data::PointId> survivors;
  std::vector<std::vector<double>> rows;
  for (data::PointId id = 0; id < served.size(); ++id) {
    if (!served.IsLive(id)) continue;
    survivors.push_back(id);
    rows.push_back(served.RowCopy(id));
  }
  oracle_config.normalization = data::NormalizationKind::kNone;
  const core::HosMiner oracle =
      BuildMiner(DatasetFromRows(served.num_dims(), rows), oracle_config);
  Rng rng(seed ^ 0x9e3779b9ULL);
  const std::vector<size_t> picks = rng.SampleWithoutReplacement(
      survivors.size(), std::min(kOracleQueries, survivors.size()));
  std::vector<data::PointId> ids;
  for (size_t p : picks) ids.push_back(survivors[p]);
  auto answers = service->QueryBatch(ids);
  for (size_t i = 0; i < picks.size(); ++i) {
    ++*checked;
    auto expect = oracle.Query(static_cast<data::PointId>(picks[i]));
    if (!answers.ok() || !expect.ok() ||
        !SameAnswer(expect->outcome, (*answers)[i].outcome)) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Per-layer set-up steps, each timed once on the replica's data (the same
/// calls HosMiner::Build makes, in the same order, with the same inputs).
void TimeSetUpLayers(const Workload& w, const core::HosMiner& replica,
                     std::map<std::string, double>* out) {
  const core::HosMinerConfig& config = replica.config();
  data::Dataset raw = w.data;
  int64_t t0 = NowNs();
  const data::Normalizer normalizer =
      data::Normalizer::Fit(raw, config.normalization);
  normalizer.Apply(&raw);
  (*out)["data.normalize_ms"] = Ms(NowNs() - t0);

  const data::Dataset& ds = replica.dataset();
  t0 = NowNs();
  auto view = std::make_shared<const kernels::DatasetView>(
      kernels::DatasetView::Build(ds));
  (*out)["kernels.view_build_ms"] = Ms(NowNs() - t0);

  t0 = NowNs();
  const filter::DensitySummary summary =
      filter::DensitySummary::Build(ds, config.va_file.bits_per_dim);
  (*out)["filter.summary_build_ms"] = Ms(NowNs() - t0);

  t0 = NowNs();
  auto tree = index::XTree::BulkLoad(ds, config.metric, config.xtree, view);
  (*out)["index.bulk_load_ms"] = Ms(NowNs() - t0);
  if (!tree.ok()) Die("XTree::BulkLoad: " + tree.status().ToString());

  Rng rng(config.seed);
  core::ThresholdOptions threshold_options;
  threshold_options.percentile = config.threshold_percentile;
  threshold_options.k = config.k;
  t0 = NowNs();
  auto threshold =
      core::EstimateThreshold(ds, replica.engine(), threshold_options, &rng);
  (*out)["core.threshold_ms"] = Ms(NowNs() - t0);
  if (!threshold.ok() || *threshold != replica.threshold()) {
    Die("threshold re-estimate differs from the miner's");
  }

  learning::LearnerOptions learner_options;
  learner_options.sample_size = config.sample_size;
  learner_options.k = config.k;
  learner_options.threshold = *threshold;
  t0 = NowNs();
  const learning::LearningReport report = learning::LearnPruningPriors(
      ds, replica.engine(), learner_options, &rng);
  (*out)["learning.priors_ms"] = Ms(NowNs() - t0);
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  Json details;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// Per-layer metrics of a traced run: replay, probes and set-up timings.
void TracedMetrics(const Workload& w, service::QueryService* service,
                   const LiveRun& live, Replica* replica,
                   const std::map<std::string, double>& setup_layers,
                   const service::ServiceStatsSnapshot& stats_before,
                   const service::ServiceStatsSnapshot& stats_after,
                   uint64_t hits_before, uint64_t lookups_before,
                   Outcome* out) {
  const int64_t ps = live.phase_start_ns();
  const int64_t pe = live.phase_end_ns();

  // Throughput of traced vs untraced slices.
  double traced_q = 0, untraced_q = 0;
  for (const RequestRecord& r : live.client().requests) {
    if (!r.ok || !live.InPhase(r.start_ns)) continue;
    (LiveRun::TracedSlice(r.start_ns, ps) ? traced_q : untraced_q) += r.ids;
  }
  double traced_s = 0, untraced_s = 0;
  for (int64_t t = ps; t < pe; t += kSliceNs) {
    const double len = static_cast<double>(std::min(pe, t + kSliceNs) - t) / 1e9;
    (LiveRun::TracedSlice(t, ps) ? traced_s : untraced_s) += len;
  }
  const double traced_qps = Ratio(traced_q, traced_s);
  const double untraced_qps = Ratio(untraced_q, untraced_s);

  // Replay every traced block on the replica, in the order the service ran
  // them, with a replay OD cache that holds what the service's held
  // (explain_hot: the warm-up pass, which the service's single worker ran
  // block by block in id order; lookup_uniform: emptied with each new pass
  // over the permutation).
  service::OdCache replay_cache{service::OdCacheConfig{}};
  if (w.kind == Kind::kExplainHot) {
    ReplayTotals warm;
    for (size_t i = 0; i < w.ids.size(); i += kRequestIds) {
      const size_t n = std::min(kRequestIds, w.ids.size() - i);
      ReplayBlock(replica->miner, &replay_cache, 0,
                  std::span<const data::PointId>(w.ids).subspan(i, n),
                  replica->miner.version(), nullptr, &warm);
    }
  }
  replica->StartCounting();
  ReplayTotals all;
  double live_block_ns = 0;
  double replay_block_ns = 0;
  size_t next_append = 0;
  uint32_t pass = 0;
  for (const BlockRecord& b : live.client().traced) {
    // window_ingest: walk the append log in step with the block versions.
    while (replica->miner.version() < b.version &&
           next_append < live.appends().size()) {
      const AppendRecord& a = live.appends()[next_append++];
      if (!a.ok) continue;
      if (replica->Append(w.stream[a.batch], kWindowRows) != a.version) {
        ++all.mismatches;
      }
    }
    if (b.pass != pass) {
      replay_cache.Clear();
      pass = b.pass;
    }
    const int32_t span = ReplayBlock(replica->miner, &replay_cache, b.request,
                                     b.ids, b.version, &b.answers, &all);
    const Span& s = all.log.spans()[span];
    live_block_ns += static_cast<double>(b.end_ns - b.start_ns);
    replay_block_ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  const EngineDelta engine = replica->CountedWork();
  LayerTimes times;
  times.Add(all.log);
  const double q = static_cast<double>(all.queries);
  out->attempted += all.queries;
  out->failed += all.mismatches;

  // Append-side measurements: the live generator on window_ingest; on the
  // read-only workloads a quiet probe after the run (service and replica).
  std::vector<double> append_span_us, append_latency_ms;
  if (w.kind == Kind::kWindowIngest) {
    for (const AppendRecord& a : live.appends()) {
      if (!live.InPhase(a.due_ns)) continue;
      append_span_us.push_back(static_cast<double>(a.end_ns - a.start_ns) / 1e3);
      append_latency_ms.push_back(Ms(a.end_ns - a.due_ns));
    }
  } else {
    Rng rng(0xa99e7d5ULL);
    for (int b = 0; b < kProbeBatches; ++b) {
      std::vector<std::vector<double>> rows(
          kAppendRows, std::vector<double>(w.data.num_dims()));
      for (std::vector<double>& row : rows) {
        for (double& x : row) x = rng.Uniform();
      }
      const int64_t t0 = NowNs();
      Result<uint64_t> version = service->AppendBatch(rows);
      const int64_t t1 = NowNs();
      ++out->attempted;
      if (!version.ok()) ++out->failed;
      append_span_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      append_latency_ms.push_back(Ms(t1 - t0));
      replica->Append(rows, 0);
    }
  }
  std::vector<double> rebuild_ms;
  for (int r = 0; r < kRebuildProbes; ++r) {
    const int64_t t0 = NowNs();
    auto artifacts = replica->miner.PrepareRebuild();
    rebuild_ms.push_back(Ms(NowNs() - t0));
    if (!artifacts.ok()) Die("PrepareRebuild: " + artifacts.status().ToString());
  }

  const uint64_t lookups =
      service->cache()->hits() + service->cache()->misses() - lookups_before;
  const double append_us = Median(append_span_us);
  const double commit_us = Median(replica->commit_us);
  out->Metric("service.self_us_per_query",
              Ratio(live_block_ns - replay_block_ns, q) / 1e3, "us");
  out->Metric("service.append_us", append_us, "us");
  out->Metric("service.append_wait_us", append_us - commit_us, "us");
  out->Metric("service.append_p50_ms", Percentile(append_latency_ms, 0.5), "ms");
  out->Metric("service.append_p90_ms", Percentile(append_latency_ms, 0.9), "ms");
  out->Metric("service.rebuilds",
              static_cast<double>(stats_after.rebuilds_completed -
                                  stats_before.rebuilds_completed),
              "count");
  out->Metric("service.rebuild_ms", Median(rebuild_ms), "ms");
  out->Metric("od_cache.hit_rate",
              Ratio(static_cast<double>(service->cache()->hits() - hits_before),
                    static_cast<double>(lookups)),
              "frac");
  out->Metric("od_cache.us_per_query", Ratio(times.Total("od_cache"), q) / 1e3,
              "us");
  out->Metric("search.self_us_per_query", Ratio(times.Self("search"), q) / 1e3,
              "us");
  out->Metric("search.od_evaluations_per_query",
              Ratio(static_cast<double>(all.od_evaluations), q), "count");
  out->Metric("search.steps_per_query", Ratio(static_cast<double>(all.steps), q),
              "count");
  out->Metric("lattice.pruned_frac", Ratio(all.pruned_frac_sum, q), "frac");
  out->Metric("knn.us_per_query", Ratio(times.Total("knn"), q) / 1e3, "us");
  const double calls = static_cast<double>(all.counts.knn_calls);
  const double points = static_cast<double>(all.counts.knn_points);
  out->Metric("knn.calls_per_query", Ratio(calls, q), "count");
  out->Metric("knn.points_per_call", Ratio(points, calls), "count");
  // The backends count a delta merge per query point, so this is the share
  // of kNN query points that also scanned appended rows.
  out->Metric("knn.delta_merge_frac",
              Ratio(static_cast<double>(engine.delta_merges), points), "frac");
  out->Metric("index.node_accesses_per_call",
              Ratio(static_cast<double>(engine.node_accesses), calls), "count");
  out->Metric(
      "index.rows_touched_frac",
      Ratio(static_cast<double>(engine.distance_computations),
            points * static_cast<double>(replica->miner.live_rows())),
      "frac");
  out->Metric("kernels.scalar_frac",
              Ratio(static_cast<double>(engine.scalar_scans),
                    static_cast<double>(engine.kernel_scans +
                                        engine.scalar_scans)),
              "frac");
  out->Metric("data.append_commit_us", commit_us, "us");
  out->Metric("filter.tally_update_us", Median(replica->tally_us), "us");
  for (const auto& [name, ms] : setup_layers) out->Metric(name, ms, "ms");
  out->Metric("trace.qps_ratio", Ratio(traced_qps, untraced_qps), "ratio");
  out->Metric("replay.accounted_frac",
              Ratio(times.Self("search") + times.Total("knn") +
                        times.Total("od_cache"),
                    times.Total("replay")),
              "frac");

  out->details.Num("traced_qps", traced_qps)
      .Num("untraced_qps", untraced_qps)
      .Int("replayed_blocks", all.blocks)
      .Int("replayed_queries", all.queries)
      .Int("replay_mismatches", all.mismatches)
      .Int("replica_rebuilds", replica->rebuilds)
      .Num("live_block_ms_total", live_block_ns / 1e6)
      .Num("replay_block_ms_total", replay_block_ns / 1e6);
}

int RunBenchmark(const Args& args) {
  PhaseLog phases;
  const double load_before = LoadAverage();
  const size_t stream_batches = static_cast<size_t>(
      std::ceil((args.seconds + 2.0) * 1e9 / kAppendPeriodNs)) + 8;
  const Workload w = MakeWorkload(args.workload, args.seed, stream_batches);
  phases.End("generate");

  std::vector<double> setup_samples, setup_wall_samples;
  std::unique_ptr<service::QueryService> service =
      SetUpService(w, &setup_samples, &setup_wall_samples);
  phases.End("setup");

  Outcome out;
  std::optional<Replica> replica;
  std::map<std::string, double> setup_layers;
  if (args.trace) {
    replica.emplace(BuildMiner(w.data, core::HosMinerConfig{}));
    TimeSetUpLayers(w, replica->miner, &setup_layers);
    phases.End("replica");
  }

  // explain_hot: one pass over every planted outlier fills the OD cache.
  if (w.kind == Kind::kExplainHot) {
    auto warm = service->QueryBatch(w.ids);
    if (!warm.ok()) Die("warm-up: " + warm.status().ToString());
    phases.End("cache_warmup");
  }
  const service::ServiceStatsSnapshot stats_before = service->Stats();
  const uint64_t hits_before = service->cache()->hits();
  const uint64_t lookups_before =
      service->cache()->hits() + service->cache()->misses();

  LiveRun live(w, service.get(), args.seed, args.trace);
  const double warmup = 1.0;
  live.Run(args.seconds, warmup);
  phases.End("live");
  const service::ServiceStatsSnapshot stats_after = service->Stats();

  // End-to-end metrics over requests sent inside the timed phase.
  const double elapsed_s =
      static_cast<double>(live.phase_end_ns() - live.phase_start_ns()) / 1e9;
  std::vector<double> cpu_ms;  // process CPU time of each request
  uint64_t queries = 0;
  std::vector<double> per_second(static_cast<size_t>(elapsed_s));
  std::vector<double> cpu_ms_by_second(per_second.size());
  std::vector<double> latency_ms;
  for (const RequestRecord& r : live.client().requests) {
    if (!live.InPhase(r.start_ns)) continue;
    out.attempted += r.ids;
    if (!r.ok) {
      out.failed += r.ids;
      continue;
    }
    queries += r.ids;
    const size_t second =
        static_cast<size_t>((r.start_ns - live.phase_start_ns()) /
                            1'000'000'000);
    if (second < per_second.size()) {
      per_second[second] += r.ids;
      cpu_ms_by_second[second] += Ms(r.cpu_ns);
    }
    latency_ms.push_back(Ms(r.end_ns - r.start_ns));
    cpu_ms.push_back(Ms(r.cpu_ns));
  }
  std::vector<double> append_ms, append_late_ms;
  for (const AppendRecord& a : live.appends()) {
    if (!live.InPhase(a.due_ns)) continue;
    ++out.attempted;
    if (!a.ok) ++out.failed;
    append_ms.push_back(Ms(a.end_ns - a.due_ns));
    append_late_ms.push_back(Ms(a.start_ns - a.due_ns));
  }

  if (args.trace) {
    TracedMetrics(w, service.get(), live, &*replica, setup_layers,
                  stats_before, stats_after, hits_before, lookups_before,
                  &out);
    phases.End("replay");
  }

  uint64_t checked = 0;
  const uint64_t oracle_mismatches =
      OracleCheck(w, service.get(), live, args.seed, &checked);
  out.attempted += checked;
  out.failed += oracle_mismatches;
  phases.End("oracle");

  // The gated figures are CPU time, not wall time: set-up is the median
  // CPU time of the builds, and each request's cost is the process CPU time
  // across the call (the client waits while the single worker runs it).
  // CPU time does not grow while a thread waits for a core, so other
  // tenants of the VM barely move it, while the wall-clock figures moved by
  // 60-150% under six competing busy threads on a 4-vCPU VM. The speed of
  // the cores themselves drifts too, so the CPU figures are scaled by
  // kNominalReferenceMs / (this run's median HostReference time): over ten
  // seeds this cut their spread (interquartile range over median) from
  // 0.05-0.15 to 0.01-0.035. Throughput and tail figures are medians over
  // parts of the timed phase (one-second windows; runs of 100 consecutive
  // requests, ten samples beyond each part's 90th percentile), so a burst
  // of load moves a minority of the parts and not the reported figure. The
  // unscaled CPU and the wall-clock figures are printed and go to the
  // details file.
  const double reference_ms = Median(live.reference_ms());
  const double scale = kNominalReferenceMs / reference_ms;
  const double setup_cpu_s = Median(setup_samples);
  std::vector<double> cpu_qps_by_second;
  for (size_t i = 0; i < per_second.size(); ++i) {
    if (cpu_ms_by_second[i] > 0) {
      cpu_qps_by_second.push_back(per_second[i] / (cpu_ms_by_second[i] / 1e3));
    }
  }
  const double cpu_qps = Median(cpu_qps_by_second);
  const double cpu_p50 = Percentile(cpu_ms, 0.5);
  std::vector<double> cpu_p90_parts;
  const double cpu_p90 = PartsPercentile(cpu_ms, 100, 0.90, &cpu_p90_parts);
  const double rss = PeakRssMb();
  const double qps_whole = Ratio(static_cast<double>(queries), elapsed_s);
  const double qps = per_second.empty() ? qps_whole : Median(per_second);
  const double p50 = Percentile(latency_ms, 0.5);
  std::vector<double> p90_parts, p99_parts;
  const double p90 = PartsPercentile(latency_ms, 100, 0.90, &p90_parts);
  const double p99 = PartsPercentile(latency_ms, 500, 0.99, &p99_parts);
  if (!args.trace) {
    out.Metric("setup_s", setup_cpu_s * scale, "s");
    out.Metric("queries_per_cpu_s", cpu_qps / scale, "1/s");
    out.Metric("request_cpu_p50_ms", cpu_p50 * scale, "ms");
    out.Metric("request_cpu_p90_ms", cpu_p90 * scale, "ms");
    out.Metric("peak_rss_mb", rss, "MB");
  }
  const double error_rate = Ratio(static_cast<double>(out.failed),
                                  static_cast<double>(out.attempted));
  const bool correct = out.failed == 0 && out.attempted > 0;

  // Human-readable summary: every measured figure by name, with its unit.
  std::printf("workload %s seed %llu trace %d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("  host reference %.6g ms: CPU figures x %.6g below\n",
              reference_ms, scale);
  std::printf("  %-32s %.6g s (CPU %.6g s, wall %.6g s)\n", "setup_s",
              setup_cpu_s * scale, setup_cpu_s, Median(setup_wall_samples));
  std::printf("  %-32s %.6g 1/s (CPU %.6g 1/s)\n", "queries_per_cpu_s",
              cpu_qps / scale, cpu_qps);
  std::printf("  %-32s %.6g ms (CPU %.6g ms)\n", "request_cpu_p50_ms",
              cpu_p50 * scale, cpu_p50);
  std::printf("  %-32s %.6g ms (CPU %.6g ms)\n", "request_cpu_p90_ms",
              cpu_p90 * scale, cpu_p90);
  std::printf("  %-32s %.6g 1/s (wall clock)\n", "qps", qps);
  std::printf("  %-32s %.6g ms (wall clock)\n", "request_p50_ms", p50);
  std::printf("  %-32s %.6g ms (wall clock)\n", "request_p90_ms", p90);
  std::printf("  %-32s %.6g ms (wall clock)\n", "request_p99_ms", p99);
  if (w.kind == Kind::kWindowIngest) {
    std::printf("  %-32s %.6g ms\n", "append_p50_ms", Percentile(append_ms, 0.5));
    std::printf("  %-32s %.6g ms\n", "append_p90_ms", Percentile(append_ms, 0.9));
  }
  std::printf("  %-32s %.6g MB\n", "peak_rss_mb", rss);
  std::printf("  %-32s %.6g ratio (%llu of %llu)\n", "error_rate", error_rate,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  if (args.trace) {
    for (const auto& [name, value] : out.metrics) {
      std::printf("  %-32s %.6g %s\n", name.c_str(), value.first,
                  value.second.c_str());
    }
  }

  if (!args.details.empty()) {
    Json provenance;
    provenance.Str("workload", w.name)
        .Int("seed", args.seed)
        .Num("seconds", args.seconds)
        .Int("trace", args.trace ? 1 : 0)
        .Str("source_id", args.source_id)
        .Str("build_type", HOS_E2E_BUILD_TYPE)
        .Int("hardware_concurrency", std::thread::hardware_concurrency())
        .Int("affinity_cpus", static_cast<uint64_t>(AffinityCpus()))
        .Int("service_workers", kServiceThreads)
        .Int("clients", 1)
        .Int("generators", w.kind == Kind::kWindowIngest ? 1 : 0)
        .Num("reference_ms", reference_ms)
        .Array("reference_ms_samples", live.reference_ms())
        .Num("loadavg_1m_before", load_before)
        .Num("loadavg_1m_after", LoadAverage());
    Json measured;
    for (const auto& [name, value] : out.metrics) {
      measured.Num(name, value.first);
    }
    out.details.Array("queries_by_second", per_second)
        .Num("reference_scale", scale)
        .Num("setup_cpu_s", setup_cpu_s)
        .Array("setup_cpu_s_samples", setup_samples)
        .Num("setup_wall_s", Median(setup_wall_samples))
        .Array("setup_wall_s_samples", setup_wall_samples)
        .Num("qps", qps)
        .Num("qps_whole_phase", qps_whole)
        .Num("request_p50_ms", p50)
        .Num("request_p90_ms", p90)
        .Num("request_p90_whole_phase_ms", Percentile(latency_ms, 0.90))
        .Array("request_p90_parts_ms", p90_parts)
        .Num("request_p99_ms", p99)
        .Num("request_p99_whole_phase_ms", Percentile(latency_ms, 0.99))
        .Array("request_p99_parts_ms", p99_parts)
        .Array("request_latency_ms", latency_ms)
        .Num("unscaled_queries_per_cpu_s", cpu_qps)
        .Array("unscaled_queries_per_cpu_s_by_second", cpu_qps_by_second)
        .Num("unscaled_request_cpu_p50_ms", cpu_p50)
        .Num("unscaled_request_cpu_p90_ms", cpu_p90)
        .Array("unscaled_request_cpu_p90_parts_ms", cpu_p90_parts)
        .Array("request_cpu_ms", cpu_ms)
        .Int("requests", latency_ms.size())
        .Num("append_p50_ms", Percentile(append_ms, 0.5))
        .Num("append_p90_ms", Percentile(append_ms, 0.9))
        .Int("appends", append_ms.size())
        .Num("append_late_p50_ms", Percentile(append_late_ms, 0.5))
        .Num("append_late_max_ms", Percentile(append_late_ms, 1.0))
        .Bool("append_stream_exhausted", live.stream_exhausted())
        .Num("peak_rss_mb", rss)
        .Num("error_rate", error_rate)
        .Int("oracle_checked", checked)
        .Int("oracle_mismatches", oracle_mismatches)
        .Num("elapsed_s", elapsed_s)
        .Int("rebuilds_completed",
             stats_after.rebuilds_completed - stats_before.rebuilds_completed);
    Json phase_seconds;
    for (const auto& [phase, seconds] : phases.phases()) {
      phase_seconds.Num(phase, seconds);
    }
    Json file;
    file.Raw("provenance", provenance.ToString())
        .Raw("phase_seconds", phase_seconds.ToString())
        .Raw("metrics", measured.ToString())
        .Raw("details", out.details.ToString());
    std::ofstream(args.details) << file.ToString() << "\n";
  }

  Json metrics;
  for (const auto& [name, value] : out.metrics) {
    Json m;
    m.Num("value", value.first).Str("unit", value.second);
    metrics.Raw(name, m.ToString());
  }
  Json result;
  result.Bool("correct", correct)
      .Int("attempted", out.attempted)
      .Int("failed", out.failed)
      .Raw("metrics", metrics.ToString());
  std::printf("%s\n", result.ToString().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Deterministic counts.
// ---------------------------------------------------------------------------

/// Replays a fixed request sequence (kCountBlocks blocks; window_ingest
/// appends a batch before every fourth) with one client on a fresh miner
/// and returns the per-layer work counts as JSON. Identical on every run of
/// the same code and seed.
std::string CountReplay(const std::string& name, uint64_t seed) {
  const size_t appends = kCountBlocks / 4;
  const Workload w = MakeWorkload(name, seed, appends);
  Replica replica(BuildMiner(w.data, core::HosMinerConfig{}));
  service::OdCache cache{service::OdCacheConfig{}};
  ReplayTotals totals;
  replica.StartCounting();
  Rng rng(seed * 1000003ULL + 1);
  size_t appended = 0;
  std::vector<data::PointId> ids;
  auto replay = [&](std::span<const data::PointId> block) {
    ReplayBlock(replica.miner, &cache, 0, block, replica.miner.version(),
                nullptr, &totals);
  };
  if (w.kind == Kind::kExplainHot) {
    for (size_t i = 0; i < w.ids.size(); i += kRequestIds) {
      replay(std::span<const data::PointId>(w.ids).subspan(
          i, std::min(kRequestIds, w.ids.size() - i)));
    }
  }
  IdStream stream(w);
  for (size_t b = 0; b < kCountBlocks; ++b) {
    if (w.kind == Kind::kWindowIngest && b % 4 == 0) {
      replica.Append(w.stream[appended++], kWindowRows);
    }
    stream.Next(&rng, replica.miner.dataset().size(), &ids);
    replay(ids);
  }
  const EngineDelta engine = replica.CountedWork();
  Json counts;
  counts.Str("workload", name)
      .Int("seed", seed)
      .Int("blocks", totals.blocks)
      .Int("queries", totals.queries)
      .Int("od_evaluations", totals.od_evaluations)
      .Int("knn_calls", totals.counts.knn_calls)
      .Int("knn_points", totals.counts.knn_points)
      .Int("distance_computations", engine.distance_computations)
      .Int("node_accesses", engine.node_accesses)
      .Int("pruned_masks", totals.pruned)
      .Int("cache_lookups", totals.counts.store_lookups)
      .Int("cache_hits", totals.counts.store_hits)
      .Int("appends", appended)
      .Int("rebuilds", replica.rebuilds);
  return counts.ToString();
}

}  // namespace
}  // namespace hos::e2e

int main(int argc, char** argv) {
  const hos::e2e::Args args = hos::e2e::ParseArgs(argc, argv);
  if (args.counts) {
    const std::string first = hos::e2e::CountReplay(args.workload, args.seed);
    const std::string second = hos::e2e::CountReplay(args.workload, args.seed);
    std::printf("%s\n", first.c_str());
    if (first != second) {
      std::fprintf(stderr, "hos_e2e: counts did not repeat:\n%s\n",
                   second.c_str());
      return 1;
    }
    return 0;
  }
  return hos::e2e::RunBenchmark(args);
}
