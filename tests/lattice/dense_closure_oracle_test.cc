// Oracle check of the dense store's word-parallel propagation: seeded random
// pending-seed sets, deliberately not monotone (so some masks fall in both
// closures), are propagated by DenseLatticeStore and by a brute-force
// pairwise oracle, and every mask's state, every per-level tally, every
// undecided list and both derived seed antichains must agree after each
// round; the store's minimal outlying subspaces must also equal
// filter::MinimalSubspaces over the evaluated outliers, element for element.
// d runs over 1..12 — the sub-word d < 6 lattices and the d = 6/7 word
// boundary included — plus d = kDenseMaxDims.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/filter/minimal_filter.h"
#include "src/lattice/dense_lattice_store.h"

namespace hos::lattice {
namespace {

struct Oracle {
  std::vector<SubspaceState> state;
  std::vector<uint64_t> evaluated_outliers;
  std::vector<uint64_t> evaluated_non_outliers;
};

/// Brute-force Propagate: every undecided mask against every pending seed,
/// upward pruning first. Returns how many undecided masks were in both
/// closures.
uint64_t OraclePropagate(Oracle& oracle, const std::vector<uint64_t>& up,
                         const std::vector<uint64_t>& down) {
  uint64_t in_both = 0;
  for (uint64_t mask = 1; mask < oracle.state.size(); ++mask) {
    if (oracle.state[mask] != SubspaceState::kUndecided) continue;
    const bool above = std::any_of(up.begin(), up.end(), [&](uint64_t s) {
      return (mask & s) == s && mask != s;
    });
    const bool below = std::any_of(down.begin(), down.end(), [&](uint64_t s) {
      return (mask & s) == mask && mask != s;
    });
    in_both += above && below;
    if (above) {
      oracle.state[mask] = SubspaceState::kInferredOutlier;
    } else if (below) {
      oracle.state[mask] = SubspaceState::kInferredNonOutlier;
    }
  }
  return in_both;
}

/// Pairwise antichain of `masks`: minimal elements (keep_minimal) or
/// maximal ones, in the order the store documents.
std::vector<Subspace> OracleAntichain(const std::vector<uint64_t>& masks,
                                      bool keep_minimal) {
  std::vector<Subspace> out;
  for (uint64_t a : masks) {
    const bool dominated =
        std::any_of(masks.begin(), masks.end(), [&](uint64_t b) {
          return a != b && (keep_minimal ? (a & b) == b : (a & b) == a);
        });
    if (!dominated) out.push_back(Subspace(a));
  }
  std::sort(out.begin(), out.end(), [&](Subspace a, Subspace b) {
    const int da = a.Dimensionality(), db = b.Dimensionality();
    if (da != db) return keep_minimal ? da < db : da > db;
    return a.mask() < b.mask();
  });
  return out;
}

void ExpectMatchesOracle(const DenseLatticeStore& store, const Oracle& oracle,
                         int d) {
  std::vector<uint64_t> inferred_out(d + 1, 0), inferred_non(d + 1, 0);
  std::vector<std::vector<uint64_t>> undecided(d + 1);
  for (uint64_t mask = 1; mask < oracle.state.size(); ++mask) {
    ASSERT_EQ(store.StateOf(Subspace(mask)), oracle.state[mask])
        << "mask " << mask;
    const int m = std::popcount(mask);
    switch (oracle.state[mask]) {
      case SubspaceState::kInferredOutlier: ++inferred_out[m]; break;
      case SubspaceState::kInferredNonOutlier: ++inferred_non[m]; break;
      case SubspaceState::kUndecided: undecided[m].push_back(mask); break;
      default: break;
    }
  }
  for (int m = 1; m <= d; ++m) {
    EXPECT_EQ(store.InferredOutliers(m), inferred_out[m]) << "m=" << m;
    EXPECT_EQ(store.InferredNonOutliers(m), inferred_non[m]) << "m=" << m;
    EXPECT_EQ(store.UndecidedCount(m), undecided[m].size()) << "m=" << m;
    EXPECT_EQ(store.UndecidedMasks(m), undecided[m]) << "m=" << m;
  }
  EXPECT_EQ(store.minimal_outlier_seeds(),
            OracleAntichain(oracle.evaluated_outliers, true));
  EXPECT_EQ(store.minimal_outlier_seeds(),
            filter::MinimalSubspaces(store.evaluated_outlier_list()));
  EXPECT_EQ(store.maximal_non_outlier_seeds(),
            OracleAntichain(oracle.evaluated_non_outliers, false));
}

/// Runs `rounds` rounds of random marks + Propagate on a fresh d-dim
/// store, checking against the oracle after each. Outlier seeds are drawn
/// low (AND of two random masks), non-outlier seeds high (OR of two), so
/// an outlier seed below a non-outlier seed — a non-monotone verdict pair
/// whose closures overlap — is common. Returns the masks found in both
/// closures.
uint64_t RunTrial(int d, uint64_t seed, int rounds, int seeds_per_round) {
  const uint64_t size = uint64_t{1} << d;
  Rng rng(seed);
  DenseLatticeStore store(d);
  Oracle oracle;
  oracle.state.assign(size, SubspaceState::kUndecided);
  uint64_t in_both = 0;
  auto random_mask = [&] {
    return static_cast<uint64_t>(
        rng.UniformInt(1, static_cast<int64_t>(size - 1)));
  };
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("d=" + std::to_string(d) + " round " + std::to_string(round));
    std::vector<uint64_t> up, down;
    for (int i = 0; i < seeds_per_round; ++i) {
      const bool outlier = rng.Bernoulli(0.5);
      uint64_t mask = 0;
      // A bounded number of draws: late rounds of small lattices may have
      // few undecided masks left.
      for (int attempt = 0; attempt < 64; ++attempt) {
        const uint64_t candidate = outlier ? random_mask() & random_mask()
                                           : random_mask() | random_mask();
        if (candidate != 0 &&
            oracle.state[candidate] == SubspaceState::kUndecided) {
          mask = candidate;
          break;
        }
      }
      if (mask == 0) continue;
      store.MarkEvaluated(Subspace(mask), outlier);
      oracle.state[mask] = outlier ? SubspaceState::kEvaluatedOutlier
                                   : SubspaceState::kEvaluatedNonOutlier;
      (outlier ? up : down).push_back(mask);
      (outlier ? oracle.evaluated_outliers : oracle.evaluated_non_outliers)
          .push_back(mask);
    }
    // Marks alone infer nothing; the undecided lists already exclude them.
    ExpectMatchesOracle(store, oracle, d);
    store.Propagate();
    in_both += OraclePropagate(oracle, up, down);
    ExpectMatchesOracle(store, oracle, d);
  }
  return in_both;
}

TEST(DenseClosureOracleTest, EveryDimensionUpToTwelve) {
  uint64_t in_both = 0;
  for (int d = 1; d <= 12; ++d) {
    for (uint64_t trial = 0; trial < 4; ++trial) {
      in_both += RunTrial(d, 1000 * d + trial, /*rounds=*/3,
                          /*seeds_per_round=*/1 + static_cast<int>(trial) * 2);
    }
  }
  // The draws must actually exercise the both-closures tie-break.
  EXPECT_GT(in_both, 0u);
}

/// Every level-m mask whose state is undecided, ascending, by brute force.
std::vector<uint64_t> BruteForceUndecided(const DenseLatticeStore& store,
                                          int m) {
  std::vector<uint64_t> out;
  for (uint64_t mask = 1; mask < (uint64_t{1} << store.num_dims()); ++mask) {
    if (std::popcount(mask) == m &&
        store.StateOf(Subspace(mask)) == SubspaceState::kUndecided) {
      out.push_back(mask);
    }
  }
  return out;
}

// The sub-word (d < 6), exactly-one-word (d = 6) and two-word (d = 7)
// undecided bitsets: fresh, after marks, and after propagation.
TEST(DenseClosureOracleTest, UndecidedMasksAtWordBoundaries) {
  for (int d : {1, 5, 6, 7}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    DenseLatticeStore store(d);
    auto expect_brute_force = [&] {
      for (int m = 1; m <= d; ++m) {
        EXPECT_EQ(store.UndecidedMasks(m), BruteForceUndecided(store, m))
            << "m=" << m;
      }
    };
    expect_brute_force();
    Rng rng(700 + d);
    for (int round = 0; round < 3; ++round) {
      const std::vector<uint64_t> open =
          store.UndecidedMasks(1 + static_cast<int>(rng.UniformInt(0, d - 1)));
      if (open.empty()) continue;
      const uint64_t mask = open[rng.UniformInt(0, open.size() - 1)];
      store.MarkEvaluated(Subspace(mask), rng.Bernoulli(0.5));
      expect_brute_force();
      store.Propagate();
      expect_brute_force();
    }
  }
}

TEST(DenseClosureOracleTest, DenseCap) {
  RunTrial(kDenseMaxDims, 2222, /*rounds=*/2, /*seeds_per_round=*/4);
}

}  // namespace
}  // namespace hos::lattice
