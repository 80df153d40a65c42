// kernels::BoxMinDistances — the X-tree's directory kernel over flat,
// dimension-major child boxes — must return, for every box, exactly the
// double Mbr::MinDistance returns (compared bit for bit): the tree's heap
// order, node accesses and answers rest on this identity. Covered across
// the three metrics, random subspaces, query points inside, on the faces
// of and outside the boxes, and zero-extent boxes and dimensions.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/index/mbr.h"
#include "src/kernels/batched_distance.h"

namespace hos::index {
namespace {

using knn::MetricKind;

Subspace RandomSubspace(int d, Rng* rng) {
  uint64_t mask = 0;
  for (int dim = 0; dim < d; ++dim) {
    if (rng->UniformInt(0, 1) == 1) mask |= uint64_t{1} << dim;
  }
  if (mask == 0) mask = uint64_t{1} << rng->UniformInt(0, d - 1);
  return Subspace(mask);
}

/// A random box; `kind` 1 makes it a single point, kind 2 flattens a
/// random half of its dimensions.
Mbr RandomBox(int d, int kind, Rng* rng) {
  std::vector<double> a(d), b(d);
  for (int dim = 0; dim < d; ++dim) {
    a[dim] = rng->Uniform(-1.0, 1.0);
    b[dim] = kind == 1 || (kind == 2 && rng->UniformInt(0, 1) == 1)
                 ? a[dim]
                 : rng->Uniform(-1.0, 1.0);
  }
  Mbr box = Mbr::OfPoint(a);
  box.Expand(b);
  return box;
}

/// A query point relative to `box`: 0 inside, 1 on its faces (every
/// coordinate a bound), 2 anywhere (mostly outside), 3 mixed per dimension.
std::vector<double> RandomQuery(const Mbr& box, int kind, Rng* rng) {
  const int d = box.num_dims();
  std::vector<double> q(d);
  for (int dim = 0; dim < d; ++dim) {
    const int how = kind == 3 ? static_cast<int>(rng->UniformInt(0, 2)) : kind;
    switch (how) {
      case 0:
        q[dim] = box.min(dim) + rng->Uniform(0.0, 1.0) * box.Extent(dim);
        break;
      case 1:
        q[dim] = rng->UniformInt(0, 1) == 1 ? box.max(dim) : box.min(dim);
        break;
      default:
        q[dim] = rng->Uniform(-3.0, 3.0);
        break;
    }
  }
  return q;
}

TEST(BoxMinDistanceTest, BitwiseEqualToMbrMinDistance) {
  Rng rng(15001);
  size_t compared = 0;
  for (MetricKind metric :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLInf}) {
    for (int trial = 0; trial < 60; ++trial) {
      const int d = 1 + static_cast<int>(rng.UniformInt(0, 11));
      const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 40));
      std::vector<Mbr> boxes;
      for (size_t c = 0; c < count; ++c) {
        boxes.push_back(
            RandomBox(d, static_cast<int>(rng.UniformInt(0, 2)), &rng));
      }
      std::vector<double> lo(count * d), hi(count * d);
      for (size_t c = 0; c < count; ++c) {
        for (int dim = 0; dim < d; ++dim) {
          lo[static_cast<size_t>(dim) * count + c] = boxes[c].min(dim);
          hi[static_cast<size_t>(dim) * count + c] = boxes[c].max(dim);
        }
      }
      for (int probe = 0; probe < 8; ++probe) {
        const Subspace subspace = RandomSubspace(d, &rng);
        const Mbr& anchor = boxes[rng.UniformInt(0, count - 1)];
        const std::vector<double> query =
            RandomQuery(anchor, probe % 4, &rng);
        std::vector<double> out(count);
        kernels::BoxMinDistances(lo.data(), hi.data(), count, query,
                                 subspace.Dims(), metric, out.data());
        for (size_t c = 0; c < count; ++c) {
          const double want = boxes[c].MinDistance(query, subspace, metric);
          ASSERT_EQ(std::bit_cast<uint64_t>(out[c]),
                    std::bit_cast<uint64_t>(want))
              << "metric=" << static_cast<int>(metric) << " d=" << d
              << " box " << c << " of " << count << ": " << out[c]
              << " vs " << want;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 1000u);
}

TEST(BoxMinDistanceTest, InsideAndOnTheBoxIsZero) {
  const Mbr box = [] {
    Mbr b = Mbr::OfPoint(std::vector<double>{0.0, 1.0, 2.0});
    b.Expand(std::vector<double>{1.0, 1.0, 3.0});  // dim 1 has zero extent
    return b;
  }();
  const std::vector<double> lo = {0.0, 1.0, 2.0};
  const std::vector<double> hi = {1.0, 1.0, 3.0};
  const Subspace full(0b111);
  for (const std::vector<double>& q :
       {std::vector<double>{0.5, 1.0, 2.5}, std::vector<double>{0.0, 1.0, 3.0},
        std::vector<double>{1.0, 1.0, 2.0}}) {
    for (MetricKind metric :
         {MetricKind::kL1, MetricKind::kL2, MetricKind::kLInf}) {
      double out = -1.0;
      kernels::BoxMinDistances(lo.data(), hi.data(), 1, q, full.Dims(),
                               metric, &out);
      EXPECT_EQ(std::bit_cast<uint64_t>(out), std::bit_cast<uint64_t>(0.0));
      EXPECT_EQ(out, box.MinDistance(q, full, metric));
    }
  }
}

}  // namespace
}  // namespace hos::index
