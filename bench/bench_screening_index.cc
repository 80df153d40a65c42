// E15 (extension): which backend should drive the full-space screening
// stage? ScreenOutliers issues one full-space kNN query per dataset point;
// this experiment compares the X-tree and a linear scan on exactly that
// workload.

#include <cmath>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/data/generator.h"
#include "src/eval/report.h"
#include "src/index/xtree.h"
#include "src/knn/linear_scan.h"

namespace {

using namespace hos;  // NOLINT

constexpr int kDims = 10;
constexpr int kK = 5;

uint64_t ScreenAll(const data::Dataset& ds,
                   const std::function<std::vector<knn::Neighbor>(
                       data::PointId)>& knn_of,
                   double* checksum) {
  Timer timer;
  double sum = 0.0;
  for (data::PointId i = 0; i < ds.size(); ++i) {
    for (const knn::Neighbor& n : knn_of(i)) sum += n.distance;
  }
  *checksum = sum;
  return static_cast<uint64_t>(timer.ElapsedMillis());
}

void Run() {
  bench::Banner("E15", "screening stage: full-space kNN for every point");
  eval::Table table({"N", "backend", "screen_ms", "dists/query"});
  for (size_t n : bench::SmokeSweep<size_t>({2000, 10000, 30000})) {
    Rng rng(15);
    data::GaussianMixtureSpec spec;
    spec.num_points = bench::SmokeSize(n, 600);
    spec.num_dims = kDims;
    spec.num_clusters = 8;
    data::Dataset ds = data::GenerateGaussianMixture(spec, &rng);
    const Subspace full = Subspace::Full(kDims);

    auto make_query = [&](data::PointId i) {
      knn::KnnQuery query;
      query.point = ds.Row(i);
      query.subspace = full;
      query.k = kK;
      query.exclude = i;
      return query;
    };

    double reference_checksum = 0.0;
    {
      auto tree = index::XTree::BulkLoad(ds, knn::MetricKind::kL2);
      if (!tree.ok()) return;
      uint64_t ms = ScreenAll(
          ds, [&](data::PointId i) { return tree->Knn(make_query(i)); },
          &reference_checksum);
      table.AddRow({std::to_string(n), "x-tree", std::to_string(ms),
                    eval::FormatDouble(
                        static_cast<double>(tree->distance_computations()) /
                            n, 0)});
    }
    {
      knn::LinearScanKnn scan(ds, knn::MetricKind::kL2);
      double checksum = 0.0;
      uint64_t ms = ScreenAll(
          ds, [&](data::PointId i) { return scan.Search(make_query(i)); },
          &checksum);
      table.AddRow({std::to_string(n), "linear scan", std::to_string(ms),
                    std::to_string(n - 1)});
      if (std::abs(checksum - reference_checksum) > 1e-6) {
        std::printf("BACKEND MISMATCH (linear scan)\n");
      }
    }
  }
  table.Print();
  std::printf(
      "\nShape: both backends return identical neighbours (checksummed);\n"
      "the X-tree prunes the quadratic scan's distance computations by an\n"
      "order of magnitude, but its wall-clock edge over the vectorized scan\n"
      "depends on n and on how clustered the data is.\n");
}

}  // namespace

int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  Run();
  return 0;
}
