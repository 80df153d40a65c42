#include "src/lattice/saving_factors.h"

#include <cassert>

namespace hos::lattice {

PruningPriors PruningPriors::Flat(int d) {
  PruningPriors priors;
  priors.up.assign(d + 1, 0.5);
  priors.down.assign(d + 1, 0.5);
  priors.up[0] = priors.down[0] = 0.0;
  priors.up[1] = 1.0;
  priors.down[1] = 0.0;
  priors.up[d] = 0.0;
  priors.down[d] = 1.0;
  return priors;
}

double TotalSavingFactor(int m, const PruningPriors& priors,
                         const LatticeStore& state) {
  const int d = state.num_dims();
  assert(m >= 1 && m <= d);
  assert(priors.num_dims() == d);
  if (state.UndecidedCount(m) == 0) return 0.0;

  double tsf = 0.0;
  if (m > 1) {
    const uint64_t c_down = TotalWorkloadBelow(m, d);
    const double f_down =
        c_down == 0 ? 0.0
                    : static_cast<double>(state.RemainingWorkloadBelow(m)) /
                          static_cast<double>(c_down);
    tsf += priors.down[m] * f_down *
           static_cast<double>(DownwardSavingFactor(m));
  }
  if (m < d) {
    const uint64_t c_up = TotalWorkloadAbove(m, d);
    const double f_up =
        c_up == 0 ? 0.0
                  : static_cast<double>(state.RemainingWorkloadAbove(m)) /
                        static_cast<double>(c_up);
    tsf += priors.up[m] * f_up *
           static_cast<double>(UpwardSavingFactor(m, d));
  }
  return tsf;
}

int BestLevel(const PruningPriors& priors, const LatticeStore& state) {
  const int d = state.num_dims();
  int best = 0;
  double best_tsf = -1.0;
  for (int m = 1; m <= d; ++m) {
    if (state.UndecidedCount(m) == 0) continue;
    double tsf = TotalSavingFactor(m, priors, state);
    if (best == 0 || tsf > best_tsf) {
      best = m;
      best_tsf = tsf;
    }
  }
  return best;
}

}  // namespace hos::lattice
