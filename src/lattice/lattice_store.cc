#include "src/lattice/lattice_store.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <string>

#include "src/lattice/dense_lattice_store.h"
#include "src/lattice/sparse_lattice_store.h"

namespace hos::lattice {

bool IsOutlierState(SubspaceState s) {
  return s == SubspaceState::kEvaluatedOutlier ||
         s == SubspaceState::kInferredOutlier;
}

bool IsDecided(SubspaceState s) { return s != SubspaceState::kUndecided; }

LatticeStore::LatticeStore(int num_dims) : num_dims_(num_dims) {
  assert(num_dims >= 1 && num_dims <= kMaxLatticeDims);
  undecided_count_.assign(num_dims + 1, 0);
  evaluated_outliers_.assign(num_dims + 1, 0);
  evaluated_non_outliers_.assign(num_dims + 1, 0);
  inferred_outliers_.assign(num_dims + 1, 0);
  inferred_non_outliers_.assign(num_dims + 1, 0);
}

void LatticeStore::MarkEvaluated(const Subspace& s, bool outlier) {
  assert(StateOf(s) == SubspaceState::kUndecided);
  const int m = s.Dimensionality();
  if (outlier) {
    RecordEvaluated(s.mask(), SubspaceState::kEvaluatedOutlier);
    ++evaluated_outliers_[m];
    evaluated_outlier_list_.push_back(s);
    pending_outlier_seeds_.push_back(s.mask());
  } else {
    RecordEvaluated(s.mask(), SubspaceState::kEvaluatedNonOutlier);
    ++evaluated_non_outliers_[m];
    evaluated_non_outlier_list_.push_back(s);
    pending_non_outlier_seeds_.push_back(s.mask());
  }
  --undecided_count_[m];
}

void LatticeStore::MarkEvaluatedBatch(std::span<const uint64_t> masks,
                                      std::span<const double> od_values,
                                      double threshold) {
  assert(masks.size() == od_values.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    MarkEvaluated(Subspace(masks[i]), od_values[i] >= threshold);
  }
}

std::vector<uint64_t> LatticeStore::UndecidedMasks(int m) const {
  std::vector<uint64_t> out;
  // Cap the up-front reservation: a non-band-shaped high-d search can
  // leave astronomically many masks undecided at a mid level, and letting
  // reserve() attempt a multi-terabyte allocation would terminate the
  // whole process (uncaught length_error) instead of leaving the — already
  // intractable — enumeration to the caller's judgement.
  out.reserve(std::min(undecided_count_[m], uint64_t{1} << 22));
  ForEachUndecided(m, [&out](uint64_t mask) { out.push_back(mask); });
  return out;
}

namespace {

/// The minimal elements of `subspaces` (or, with `maximal`, the maximal
/// ones), sorted by dimensionality — ascending for minimal, descending for
/// maximal — then by mask. Levels are visited in that order, so an element
/// can only be dominated by one kept before it; a duplicate is dominated by
/// its first copy.
std::vector<Subspace> Antichain(const std::vector<Subspace>& subspaces,
                                bool maximal) {
  // Bucket the masks by level with a counting sort — level m's masks land
  // in by_level[start[m], start[m + 1]) — so only each level's survivors
  // need sorting by mask.
  constexpr int kLevels = kMaxLatticeDims + 1;
  std::array<size_t, kLevels + 1> start{};
  for (const Subspace& s : subspaces) ++start[s.Dimensionality() + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<uint64_t> by_level(subspaces.size());
  std::array<size_t, kLevels + 1> fill = start;
  for (const Subspace& s : subspaces) {
    by_level[fill[s.Dimensionality()]++] = s.mask();
  }

  std::vector<Subspace> kept;
  for (int i = 0; i < kLevels; ++i) {
    const int m = maximal ? kLevels - 1 - i : i;
    const size_t first = kept.size();
    for (size_t j = start[m]; j < start[m + 1]; ++j) {
      const Subspace s(by_level[j]);
      if (std::none_of(kept.begin(), kept.end(), [&](const Subspace& k) {
            return maximal ? s.IsSubsetOf(k) : k.IsSubsetOf(s);
          })) {
        kept.push_back(s);
      }
    }
    std::sort(kept.begin() + first, kept.end(),
              [](const Subspace& a, const Subspace& b) {
                return a.mask() < b.mask();
              });
  }
  return kept;
}

}  // namespace

std::vector<Subspace> LatticeStore::minimal_outlier_seeds() const {
  return Antichain(evaluated_outlier_list_, /*maximal=*/false);
}

std::vector<Subspace> LatticeStore::maximal_non_outlier_seeds() const {
  return Antichain(evaluated_non_outlier_list_, /*maximal=*/true);
}

bool LatticeStore::AllDecided() const {
  for (int m = 1; m <= num_dims_; ++m) {
    if (undecided_count_[m] != 0) return false;
  }
  return true;
}

uint64_t LatticeStore::RemainingWorkloadBelow(int m) const {
  uint64_t sum = 0;
  for (int i = 1; i < m; ++i) {
    sum += undecided_count_[i] * static_cast<uint64_t>(i);
  }
  return sum;
}

uint64_t LatticeStore::RemainingWorkloadAbove(int m) const {
  uint64_t sum = 0;
  for (int i = m + 1; i <= num_dims_; ++i) {
    sum += undecided_count_[i] * static_cast<uint64_t>(i);
  }
  return sum;
}

Status ValidateLatticeStoreConfig(int num_dims, LatticeBackend backend) {
  if (num_dims < 1 || num_dims > kMaxLatticeDims) {
    return Status::InvalidArgument(
        "lattice searches support 1.." + std::to_string(kMaxLatticeDims) +
        " dimensions (workload tallies must stay within uint64); got d=" +
        std::to_string(num_dims));
  }
  if (backend == LatticeBackend::kDense && num_dims > kDenseMaxDims) {
    return Status::InvalidArgument(
        "the dense lattice backend supports 1.." +
        std::to_string(kDenseMaxDims) + " dimensions (flat 2^d state array); "
        "got d=" + std::to_string(num_dims) +
        " — use LatticeBackend::kSparse or kAuto");
  }
  return Status::OK();
}

Result<std::unique_ptr<LatticeStore>> MakeLatticeStore(
    int num_dims, LatticeBackend backend) {
  Status valid = ValidateLatticeStoreConfig(num_dims, backend);
  if (!valid.ok()) return valid;
  if (backend == LatticeBackend::kSparse ||
      (backend == LatticeBackend::kAuto && num_dims > kDenseMaxDims)) {
    return std::unique_ptr<LatticeStore>(
        std::make_unique<SparseLatticeStore>(num_dims));
  }
  return std::unique_ptr<LatticeStore>(
      std::make_unique<DenseLatticeStore>(num_dims));
}

}  // namespace hos::lattice
