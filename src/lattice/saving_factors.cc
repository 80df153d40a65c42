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

SavingFactorTable::SavingFactorTable(int d)
    : c_down_(d + 1, 0), c_up_(d + 1, 0), dsf_(d + 1, 0.0), usf_(d + 1, 0.0) {
  for (int m = 1; m <= d; ++m) {
    c_down_[m] = TotalWorkloadBelow(m, d);
    c_up_[m] = TotalWorkloadAbove(m, d);
    dsf_[m] = static_cast<double>(DownwardSavingFactor(m));
    usf_[m] = static_cast<double>(UpwardSavingFactor(m, d));
  }
}

double SavingFactorTable::Score(int m, const PruningPriors& priors,
                                uint64_t remaining_below,
                                uint64_t remaining_above) const {
  const int d = num_dims();
  double tsf = 0.0;
  if (m > 1) {
    const uint64_t c_down = c_down_[m];
    const double f_down =
        c_down == 0 ? 0.0
                    : static_cast<double>(remaining_below) /
                          static_cast<double>(c_down);
    tsf += priors.down[m] * f_down * dsf_[m];
  }
  if (m < d) {
    const uint64_t c_up = c_up_[m];
    const double f_up =
        c_up == 0 ? 0.0
                  : static_cast<double>(remaining_above) /
                        static_cast<double>(c_up);
    tsf += priors.up[m] * f_up * usf_[m];
  }
  return tsf;
}

double SavingFactorTable::TotalSavingFactor(int m, const PruningPriors& priors,
                                            const LatticeStore& state) const {
  assert(m >= 1 && m <= num_dims());
  assert(state.num_dims() == num_dims());
  assert(priors.num_dims() == num_dims());
  if (state.UndecidedCount(m) == 0) return 0.0;
  return Score(m, priors, state.RemainingWorkloadBelow(m),
               state.RemainingWorkloadAbove(m));
}

int SavingFactorTable::BestLevel(const PruningPriors& priors,
                                 const LatticeStore& state) const {
  const int d = num_dims();
  assert(state.num_dims() == d);
  assert(priors.num_dims() == d);
  // The remaining workloads of every level from one pass of prefix sums —
  // the same exact integers RemainingWorkloadBelow/Above sum level by
  // level.
  uint64_t total = 0;
  for (int i = 1; i <= d; ++i) {
    total += state.UndecidedCount(i) * static_cast<uint64_t>(i);
  }
  int best = 0;
  double best_tsf = -1.0;
  uint64_t below = 0;
  for (int m = 1; m <= d; ++m) {
    const uint64_t here = state.UndecidedCount(m) * static_cast<uint64_t>(m);
    if (here != 0) {
      const double tsf = Score(m, priors, below, total - below - here);
      if (best == 0 || tsf > best_tsf) {
        best = m;
        best_tsf = tsf;
      }
    }
    below += here;
  }
  return best;
}

}  // namespace hos::lattice
