// HosMiner: the system facade wiring together the four modules of the
// paper's Figure 2 — X-tree indexing, sampling-based learning, dynamic
// subspace search, and the result-refinement filter.
//
// Typical use:
//
//   hos::core::HosMinerConfig config;
//   config.k = 5;
//   auto miner = hos::core::HosMiner::Build(std::move(dataset), config);
//   auto result = miner->Query(point_id);
//   for (const hos::Subspace& s : result->outlying_subspaces()) { ... }

#ifndef HOS_CORE_HOS_MINER_H_
#define HOS_CORE_HOS_MINER_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/data/normalizer.h"
#include "src/filter/density_filter.h"
#include "src/index/va_file.h"
#include "src/index/xtree.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/knn_engine.h"
#include "src/knn/linear_scan.h"
#include "src/learning/learner.h"
#include "src/obs/trace.h"
#include "src/search/search_result.h"
#include "src/search/subspace_search.h"

namespace hos::core {

/// Which kNN backend serves the OD computations. All three are exact; they
/// differ only in cost.
enum class IndexKind {
  kXTree,       ///< the paper's indexing module
  kVaFile,      ///< vector-approximation file (Weber et al., VLDB'98)
  kLinearScan,  ///< brute force; O(n) per query
};

struct HosMinerConfig {
  /// k of the OD measure (paper §2).
  int k = 5;
  /// Outlier threshold T. <= 0 requests automatic estimation via
  /// EstimateThreshold with `threshold_percentile`.
  double threshold = 0.0;
  double threshold_percentile = 0.95;
  knn::MetricKind metric = knn::MetricKind::kL2;
  /// Applied to the dataset at Build; query points given in raw coordinates
  /// are transformed with the same fitted parameters.
  data::NormalizationKind normalization = data::NormalizationKind::kMinMax;
  IndexKind index = IndexKind::kXTree;
  index::XTreeConfig xtree;
  index::VaFileConfig va_file;
  /// Bulk-load the X-tree (fast) instead of repeated insertion.
  bool bulk_load = true;
  /// Sample size S of the learning process; 0 disables learning and uses
  /// flat priors. Ignored (treated as 0) when the dataset is wider than
  /// lattice::kDenseMaxDims: each sample would cost a full sparse lattice
  /// search, so high-d learning is opt-in via learning::LearnPruningPriors.
  int sample_size = 20;
  /// Seed for sampling and threshold estimation.
  uint64_t seed = 42;
};

/// Per-query knobs. None of them changes an answer, only how it is
/// computed.
struct QueryOptions {
  /// Density-bound OD pre-filter participation (see
  /// filter::DensityBoundFilter). kOff never consults the filter;
  /// kConservative takes only provably-safe shortcuts, keeping answers
  /// bitwise identical to kOff.
  filter::FilterMode filter_mode = filter::FilterMode::kOff;
  /// Optional cross-query OD memo (the service layer's shared cache).
  /// Memoised values are bit-identical to fresh evaluations, so results
  /// with and without a store are the same.
  search::SharedOdStore* od_store = nullptr;
  /// Borrowed pool for intra-query parallel frontier evaluation; null runs
  /// the lattice search sequentially on the calling thread. Must not be
  /// the pool the query itself executes on — frontier waves block on their
  /// chunk futures, so a pool waiting on itself deadlocks once every
  /// worker is blocked (service::QueryService keeps a dedicated search
  /// pool for this reason).
  service::ThreadPool* search_pool = nullptr;
  /// Concurrent OD evaluations per frontier wave; 0 uses the pool's full
  /// width, <= 1 with a pool still evaluates sequentially. Ignored without
  /// search_pool. Answers are identical at any setting.
  int search_threads = 0;
  /// Lattice storage backend for this query's search. kAuto picks the flat
  /// dense array for d <= lattice::kDenseMaxDims and the hash-map sparse
  /// store above (the only way to search d in 23..kMaxLatticeDims); both
  /// produce bit-identical answers. Forcing kDense past its cap makes the
  /// query return InvalidArgument.
  lattice::LatticeBackend lattice_backend = lattice::LatticeBackend::kAuto;
  /// Work budget: maximum fresh OD evaluations one query may spend; 0 is
  /// unlimited. A query whose next lattice level would exceed it returns
  /// ResourceExhausted instead of running for hours — the guard for
  /// exhaustive / non-band searches at d > 22
  /// (SearchExecution::max_od_evaluations).
  uint64_t max_od_evaluations = 0;
  /// When true (and no external `tracer` is given), the query collects a
  /// span tree — search → strategy → level → knn — and attaches it to
  /// QueryResult::trace. Tracing observes, never steers: answers are
  /// bitwise identical with it on or off (held by
  /// tests/obs/trace_differential_test.cc).
  bool collect_trace = false;
  /// External span sink. When set, spans are recorded here under
  /// `trace_parent` and the caller owns finishing the trace (the serving
  /// layer does this so its "service" root span encloses the search);
  /// QueryResult::trace stays null.
  obs::QueryTracer* tracer = nullptr;
  /// Span id this query's "search" span attaches under in an external
  /// tracer (-1 = root). Ignored without `tracer`.
  int trace_parent = -1;
};

/// Answer for one query point.
struct QueryResult {
  search::SearchOutcome outcome;

  /// Dataset version (data::Dataset::version) the query was answered at.
  /// In the serving layer every result's version corresponds to a dataset
  /// state that actually existed: appends are serialized against queries,
  /// so a query sees either all of an append batch or none of it.
  uint64_t dataset_version = 0;

  /// Span tree of this query's execution; null unless
  /// QueryOptions::collect_trace asked for one (shared_ptr so copying
  /// results stays cheap and the common untraced path pays nothing).
  std::shared_ptr<const obs::QueryTrace> trace;

  /// The refined answer set (paper §3.4): minimal outlying subspaces.
  const std::vector<Subspace>& outlying_subspaces() const {
    return outcome.minimal_outlying_subspaces;
  }
  bool is_outlier_anywhere() const { return outcome.IsOutlierAnywhere(); }
};

class HosMiner {
 public:
  /// Builds the whole system: normalises `dataset`, constructs the index,
  /// estimates T when requested, and runs the learning process.
  static Result<HosMiner> Build(data::Dataset dataset,
                                HosMinerConfig config = {});

  HosMiner(HosMiner&&) noexcept = default;
  HosMiner& operator=(HosMiner&&) noexcept = default;

  /// Finds the outlying subspaces of dataset row `id` (the row itself is
  /// excluded from its neighbour sets). A tombstoned (deleted/evicted) id
  /// returns NotFound; an id that never existed returns OutOfRange. When
  /// deletes or evictions have left fewer than k live rows besides `id`,
  /// OD is undefined and the query returns FailedPrecondition.
  ///
  /// Thread safety: as long as nothing mutates the miner, Query,
  /// QueryPoint, QueryAll, ScreenOutliers and TopOutliers may be called
  /// concurrently from any number of threads (the engines' work counters
  /// are relaxed atomics; all per-query state lives on the caller's
  /// stack). The streaming-ingest mutators (Append, CommitRebuild,
  /// Rebuild, RefreshLearning) must be serialized against the query path —
  /// see the streaming section below.
  Result<QueryResult> Query(data::PointId id) const {
    return Query(id, QueryOptions{});
  }
  Result<QueryResult> Query(data::PointId id,
                            const QueryOptions& options) const;

  /// Finds the outlying subspaces of an external point given in *raw*
  /// (pre-normalisation) coordinates. A wrong width or a NaN/infinite
  /// coordinate is InvalidArgument; fewer than k live rows is
  /// FailedPrecondition.
  Result<QueryResult> QueryPoint(std::vector<double> raw_point) const;

  /// Batch form of Query.
  Result<std::vector<QueryResult>> QueryAll(
      const std::vector<data::PointId>& ids) const;

  /// A dataset point with its full-space OD.
  struct ScreenedOutlier {
    data::PointId id;
    double full_space_od;
  };

  /// Screens the whole dataset: by OD monotonicity (paper §2) a point has
  /// at least one outlying subspace iff its full-space OD >= T, so one kNN
  /// query per point decides who is worth a lattice search at all.
  /// Returns the qualifying points, descending by full-space OD.
  std::vector<ScreenedOutlier> ScreenOutliers() const;

  /// The top-n points by full-space OD (Ramaswamy-style ranking with the
  /// OD measure), regardless of the threshold.
  std::vector<ScreenedOutlier> TopOutliers(int top_n) const;

  /// A top-n point with its full lattice answer.
  struct TopOutlierQuery {
    data::PointId id;
    double full_space_od;
    Result<QueryResult> result;
  };

  /// TopOutliers, then a full lattice walk per returned point — with each
  /// walk *seeded* from the screening pass: the point's full-space OD
  /// (already computed by the shared batched sweep) is deposited into the
  /// walk's memo up front, so the full-space subspace never costs a second
  /// kNN query. Answer content is bitwise identical to Query(id, options)
  /// per point; the only counter difference is that a walk which consumes
  /// the seed reports the full-space mask like a shared-store hit instead
  /// of a fresh evaluation (od_evaluations one lower).
  std::vector<TopOutlierQuery> TopOutliersWithSubspaces(
      int top_n, const QueryOptions& options = {}) const;

  /// Fused full-space OD of the given rows (each must be live), in input
  /// order: the ids are served in internal blocks through the backend's
  /// batched kNN entry point (one index traversal / kernel sweep per block
  /// instead of per id). Values are bitwise identical to per-id
  /// knn::OutlyingDegree calls — the multi-point kernel admits neighbours
  /// by exact distances only — so ScreenOutliers and TopOutliers, which
  /// are built on this, rank exactly as the historical per-point loop did.
  std::vector<double> ScreenBatch(std::span<const data::PointId> ids) const;

  /// Fused batch form of Query(id, options): each id is validated exactly
  /// like Query (OutOfRange / NotFound / FailedPrecondition reported in
  /// that id's slot), then the valid points' lattice searches are
  /// co-scheduled through search::BatchFrontierRunner so OD evaluations
  /// coinciding on a subspace share one fused kNN pass. Per-point answer
  /// content is bitwise identical to Query(id, options) — see
  /// batch_frontier.h for the argument and the monitoring-only counter
  /// exceptions. With collect_trace set (and no external tracer) the whole
  /// block records one shared span tree, attached to every successful
  /// result.
  std::vector<Result<QueryResult>> QueryBatchFused(
      std::span<const data::PointId> ids, const QueryOptions& options) const;

  // -------------------------------------------------------------------
  // Streaming ingest and the sliding window. Append adds rows (the delta)
  // which every query merges in exactly — the kNN backends scan the delta
  // alongside their index/kernel base; Delete / EvictBefore / EvictOldest
  // tombstone rows, which every query filters out exactly. So answers at
  // version v are bit-identical to a miner freshly built on the surviving
  // rows (given the same threshold and priors). A rebuild folds the delta
  // and the tombstones into the index and SoA snapshot physically; it
  // never re-fits the normalizer or re-estimates the threshold (that
  // would change the meaning of previously returned results).
  //
  // Thread safety: Append / Delete / Evict* / CommitRebuild / Rebuild /
  // CommitLearning / RefreshLearning mutate the miner and must be
  // externally serialized against the const query path; PrepareRebuild
  // and PrepareLearning only read, so they may run concurrently with
  // queries (but not with mutations). service::QueryService implements
  // exactly this discipline with its ingest lock.
  // -------------------------------------------------------------------

  /// Appends rows given in *raw* (pre-normalisation) coordinates; they are
  /// transformed with the Build-time fitted normalizer. Returns the new
  /// dataset version. Marks the learned pruning priors stale (answers are
  /// unaffected — priors only steer search order — so refreshing is lazy:
  /// call RefreshLearning when delta-heavy query plans degrade).
  /// Equivalent to PrepareAppend + CommitAppend. A row of the wrong width
  /// or with a NaN/infinite value is InvalidArgument and appends nothing.
  Result<uint64_t> Append(const std::vector<std::vector<double>>& raw_rows);

  /// Validation + normalization half of Append: read-only (safe to run
  /// concurrently with queries), so a serving layer can do the per-row
  /// work outside its writer lock and keep the exclusive section down to
  /// CommitAppend's row-copy mutation.
  Result<std::vector<std::vector<double>>> PrepareAppend(
      const std::vector<std::vector<double>>& raw_rows) const;

  /// Commits rows produced by PrepareAppend; returns the new version.
  uint64_t CommitAppend(std::vector<std::vector<double>> normalized_rows);

  /// Tombstones the given rows, all-or-nothing (see
  /// data::Dataset::DeleteRows for the error contract). Ids stay stable;
  /// every query from the returned version on filters the dead rows
  /// exactly, so answers are bit-identical to a fresh build on the
  /// survivors. Marks the pruning priors stale (the learned sample may
  /// reference dead rows; answers are unaffected either way).
  Result<uint64_t> Delete(std::span<const data::PointId> ids);

  /// TTL eviction: tombstones every live row appended before dataset
  /// version `version`. Returns the number evicted.
  size_t EvictBefore(uint64_t version);

  /// Row-count sliding window: tombstones the `n` oldest live rows.
  /// Returns the number evicted.
  size_t EvictOldest(size_t n);

  /// Monotonic dataset version; every appended or tombstoned row bumps it.
  uint64_t version() const { return dataset_->version(); }

  /// Rows appended since Build / the last committed rebuild.
  size_t delta_rows() const { return dataset_->delta_size(); }

  /// delta_rows() / dataset size — the append half of the rebuild signal.
  double delta_fraction() const { return dataset_->delta_fraction(); }

  /// (delta rows + unsealed tombstones) / live rows — the per-query extra
  /// work the sealed structures cannot serve; the rebuild-policy signal.
  double churn_fraction() const { return dataset_->churn_fraction(); }

  /// Rows the queries can still return.
  size_t live_rows() const { return dataset_->live_size(); }

  /// True when rows were appended or deleted since the pruning priors were
  /// learned.
  bool learning_stale() const { return learning_stale_; }

  /// Drift signal: rows changed (appended + tombstoned) since the priors
  /// were learned, as a fraction of the live rows. 0 right after learning;
  /// 1.0 means the window has turned over entirely since then. Monotone in
  /// version(), so a threshold on it fires exactly once per drift episode
  /// when relearning resets it.
  double learning_staleness() const {
    const size_t live = dataset_->live_size();
    return static_cast<double>(dataset_->version() - priors_version_) /
           static_cast<double>(std::max<size_t>(live, 1));
  }

  /// Dataset version the current pruning priors were learned at.
  uint64_t priors_version() const { return priors_version_; }

  /// Everything a learning refresh produces, computed by PrepareLearning
  /// without touching the served state; swapped in by CommitLearning in
  /// O(1). Priors only steer search order, so answers are identical before
  /// and after the commit — which is why the serving layer may run the
  /// prepare concurrently with queries.
  struct LearningArtifacts {
    learning::LearningReport report;
    std::unique_ptr<search::DynamicSubspaceSearch> search;
    /// Dataset version the priors were learned at.
    uint64_t version = 0;
  };

  /// Re-runs the sampling-based learning process on the current live rows
  /// (same skip rule as Build past the dense-lattice cap; fresh
  /// Rng(config.seed)). Heavy; read-only.
  LearningArtifacts PrepareLearning() const;

  /// Installs prepared priors and clears the staleness signal. Cheap.
  void CommitLearning(LearningArtifacts artifacts);

  /// PrepareLearning + CommitLearning in one call. Purely a query-plan
  /// refresh: answers never change.
  void RefreshLearning();

  /// Everything a rebuild constructs, produced by PrepareRebuild without
  /// touching the served state so queries can continue meanwhile; swapped
  /// in by CommitRebuild in O(1).
  struct RebuildArtifacts {
    std::shared_ptr<const kernels::DatasetView> view;
    std::unique_ptr<index::XTree> xtree;
    std::unique_ptr<index::VaFile> va_file;
    std::unique_ptr<knn::KnnEngine> engine;
    /// Density-bound pre-filter over the same rows (exported from the
    /// VA-file when that is the serving index, quantized directly
    /// otherwise).
    std::unique_ptr<filter::DensityBoundFilter> filter;
    /// Rows and version the artifacts cover (rows appended after
    /// PrepareRebuild simply stay in the delta after the commit).
    size_t rows = 0;
    uint64_t version = 0;
    /// Dead rows among the first `rows` ids that the artifacts folded out
    /// physically (rows tombstoned after the prepare stay unsealed and are
    /// filtered at query time until the next rebuild).
    uint64_t folded_tombstones = 0;
  };

  /// Builds a fresh SoA snapshot and index over all current rows. Heavy
  /// (O(n·d) plus the index bulk load); read-only.
  Result<RebuildArtifacts> PrepareRebuild() const;

  /// Installs prepared artifacts and re-seals the dataset base. Cheap —
  /// this is the only step a serving layer must block writers and readers
  /// for.
  void CommitRebuild(RebuildArtifacts artifacts);

  /// PrepareRebuild + CommitRebuild in one call.
  Status Rebuild();

  double threshold() const { return threshold_; }
  int num_dims() const { return dataset_->num_dims(); }
  const HosMinerConfig& config() const { return config_; }
  /// The normalised dataset the system operates on.
  const data::Dataset& dataset() const { return *dataset_; }
  /// The column-major SoA snapshot of dataset() that the batched distance
  /// kernel sweeps; built once at Build and shared by the kNN backend (and
  /// so by every QueryService worker serving this miner snapshot).
  const kernels::DatasetView& soa_view() const { return *soa_view_; }
  const knn::KnnEngine& engine() const { return *engine_; }
  const learning::LearningReport& learning_report() const {
    return learning_report_;
  }
  const lattice::PruningPriors& priors() const {
    return learning_report_.priors;
  }
  /// Non-null when config().index == kXTree.
  const index::XTree* xtree() const { return xtree_.get(); }
  /// Non-null when config().index == kVaFile.
  const index::VaFile* va_file() const { return va_file_.get(); }
  /// The density-bound pre-filter over the current base (always built; it
  /// only acts when a query opts in via QueryOptions::filter_mode).
  const filter::DensityBoundFilter* density_filter() const {
    return density_filter_.get();
  }

 private:
  HosMiner(HosMinerConfig config, std::unique_ptr<data::Dataset> dataset,
           data::Normalizer normalizer);

  /// `full_space_seed`: pre-deposits OD(p, full space) into the walk's
  /// memo (the TopOutliersWithSubspaces screening hand-off). Must be the
  /// bitwise OutlyingDegree value for `point` or answers may change.
  Result<QueryResult> RunSearch(
      std::span<const double> point, std::optional<data::PointId> exclude,
      const QueryOptions& options,
      std::optional<double> full_space_seed = std::nullopt) const;

  /// The one learning step shared by Build and PrepareLearning: runs the
  /// sampling-based learner (skipped — flat priors — past the dense
  /// lattice cap, where each sample would cost a full sparse search) over
  /// the live rows with the given rng.
  LearningArtifacts LearnPriors(Rng* rng) const;

  HosMinerConfig config_;
  std::unique_ptr<data::Dataset> dataset_;  // normalised copy
  std::shared_ptr<const kernels::DatasetView> soa_view_;
  data::Normalizer normalizer_;
  std::unique_ptr<index::XTree> xtree_;      // when index == kXTree
  std::unique_ptr<index::VaFile> va_file_;   // when index == kVaFile
  std::unique_ptr<knn::KnnEngine> engine_;
  std::unique_ptr<filter::DensityBoundFilter> density_filter_;
  double threshold_ = 0.0;
  learning::LearningReport learning_report_;
  std::unique_ptr<search::DynamicSubspaceSearch> query_search_;
  bool learning_stale_ = false;
  /// Dataset version the installed priors were learned at (feeds
  /// learning_staleness()).
  uint64_t priors_version_ = 0;
};

}  // namespace hos::core

#endif  // HOS_CORE_HOS_MINER_H_
