#include "src/search/od_evaluator.h"

#include <bit>
#include <utility>

namespace hos::search {

double OdEvaluator::Evaluate(const Subspace& subspace) {
  double od;
  if (LookupLocal(subspace.mask(), &od)) return od;

  // The shared store only applies to dataset-row query points; `exclude_`
  // holds the row id exactly in that case.
  if (shareable() &&
      shared_store_->Lookup(*exclude_, subspace.mask(), &od)) {
    MemoInsert(subspace.mask(), od);
    ++num_shared_hits_;
    return od;
  }

  knn::KnnQuery query;
  query.point = point_;
  query.subspace = subspace;
  query.k = k_;
  query.exclude = exclude_;
  od = knn::OutlyingDegree(engine_, query);
  MemoInsert(subspace.mask(), od);
  ++num_evaluations_;
  if (shareable()) shared_store_->Store(*exclude_, subspace.mask(), od);
  return od;
}

void OdEvaluator::Deposit(uint64_t mask, double od, ValueSource source) {
  if (!MemoInsert(mask, od)) return;  // already memoised; nothing to count
  if (source == ValueSource::kComputed) {
    ++num_evaluations_;
  } else {
    ++num_shared_hits_;
  }
}

bool OdEvaluator::MemoInsert(uint64_t mask, double od) {
  if (mask == 0) return false;
  size_t i = memo_.empty() ? 0 : FindSlot(mask);
  if (!memo_.empty() && memo_[i].mask == mask) return false;
  if (2 * (memo_size_ + 1) > memo_.size()) {
    // Double (from empty: to 64 slots) and re-place every entry.
    std::vector<MemoSlot> old = std::exchange(
        memo_, std::vector<MemoSlot>(memo_.empty() ? 64 : 2 * memo_.size()));
    memo_shift_ = 64 - std::countr_zero(memo_.size());
    for (const MemoSlot& slot : old) {
      if (slot.mask != 0) memo_[FindSlot(slot.mask)] = slot;
    }
    i = FindSlot(mask);
  }
  memo_[i] = {mask, od};
  ++memo_size_;
  return true;
}

}  // namespace hos::search
