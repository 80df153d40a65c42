// Saving factors (paper §3.1, Definitions 1-3) and the pruning-probability
// priors they are combined with (paper §3.2).
//
// TSF(m, p) scores how much future work evaluating level m is expected to
// save through the two pruning strategies; the dynamic search always
// explores the level with the highest TSF next.

#ifndef HOS_LATTICE_SAVING_FACTORS_H_
#define HOS_LATTICE_SAVING_FACTORS_H_

#include <cstdint>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/lattice/lattice_store.h"

namespace hos::lattice {

/// Per-level pruning probabilities p_up(m) and p_down(m), indexed by level
/// m in 1..d (index 0 unused).
struct PruningPriors {
  std::vector<double> up;
  std::vector<double> down;

  int num_dims() const { return static_cast<int>(up.size()) - 1; }

  /// The paper's §3.2 assignment for sample points (no prior knowledge):
  /// p_up = p_down = 0.5 for 1 < m < d; p_up(1) = 1, p_down(1) = 0;
  /// p_up(d) = 0, p_down(d) = 1.
  static PruningPriors Flat(int d);
};

/// TSF scoring for one dimensionality d. Holds the per-level constants of
/// Definition 3 — C_down(m), C_up(m), DSF(m) and USF(m, d) — computed once,
/// so a walk that scores every level at every step sums no binomials.
/// Build one per walk (or per runner) and score every step with it.
class SavingFactorTable {
 public:
  explicit SavingFactorTable(int d);

  int num_dims() const { return static_cast<int>(dsf_.size()) - 1; }

  /// TSF(m, p) of Definition 3, combining DSF/USF with the priors and the
  /// fractions f_down/f_up of remaining (undecided) workload in the
  /// lattice. Levels with no undecided subspaces score 0.
  double TotalSavingFactor(int m, const PruningPriors& priors,
                           const LatticeStore& state) const;

  /// The level in 1..d with the highest TSF among levels that still have
  /// undecided subspaces; returns 0 when every level is decided.
  /// Ties break toward the lower level.
  int BestLevel(const PruningPriors& priors, const LatticeStore& state) const;

 private:
  /// TSF(m) given level m's remaining workload below and above.
  double Score(int m, const PruningPriors& priors, uint64_t remaining_below,
               uint64_t remaining_above) const;

  std::vector<uint64_t> c_down_;  // TotalWorkloadBelow(m, d), index by m
  std::vector<uint64_t> c_up_;    // TotalWorkloadAbove(m, d)
  std::vector<double> dsf_;       // DownwardSavingFactor(m)
  std::vector<double> usf_;       // UpwardSavingFactor(m, d)
};

}  // namespace hos::lattice

#endif  // HOS_LATTICE_SAVING_FACTORS_H_
