// Saving factors (paper §3.1, Definitions 1-3) and the pruning-probability
// priors they are combined with (paper §3.2).
//
// TSF(m, p) scores how much future work evaluating level m is expected to
// save through the two pruning strategies; the dynamic search always
// explores the level with the highest TSF next.

#ifndef HOS_LATTICE_SAVING_FACTORS_H_
#define HOS_LATTICE_SAVING_FACTORS_H_

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

/// TSF(m, p) of Definition 3, combining DSF/USF with the priors and the
/// fractions f_down/f_up of remaining (undecided) workload in the lattice.
/// Levels with no undecided subspaces score 0.
double TotalSavingFactor(int m, const PruningPriors& priors,
                         const LatticeStore& state);

/// The level in 1..d with the highest TSF among levels that still have
/// undecided subspaces; returns 0 when every level is decided.
/// Ties break toward the lower level.
int BestLevel(const PruningPriors& priors, const LatticeStore& state);

}  // namespace hos::lattice

#endif  // HOS_LATTICE_SAVING_FACTORS_H_
