#include "src/search/parallel_evaluator.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>

#include "src/service/thread_pool.h"

namespace hos::search {

namespace {

std::string MaskDetail(uint64_t mask) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "mask=0x%llx",
                static_cast<unsigned long long>(mask));
  return buf;
}

}  // namespace

ParallelEvaluator::ParallelEvaluator(OdEvaluator* root,
                                     const SearchExecution& exec)
    : root_(root),
      pool_(exec.pool),
      tracer_(exec.tracer),
      chunk_size_(exec.chunk_size) {
  if (pool_ == nullptr) {
    concurrency_ = 1;
  } else {
    concurrency_ = exec.max_threads > 0
                       ? std::min(exec.max_threads, pool_->num_threads())
                       : pool_->num_threads();
    if (concurrency_ < 1) concurrency_ = 1;
  }
}

double ParallelEvaluator::ComputeOne(uint64_t mask,
                                     OdEvaluator::ValueSource* source,
                                     int trace_parent) const {
  double od;
  SharedOdStore* store = root_->shared_store();
  const bool shareable = root_->shareable();
  if (shareable && store->Lookup(*root_->exclude(), mask, &od)) {
    if (tracer_ != nullptr) {
      obs::ScopedSpan span(tracer_, "od_store_hit", trace_parent,
                           MaskDetail(mask));
    }
    *source = OdEvaluator::ValueSource::kSharedStoreHit;
    return od;
  }
  obs::ScopedSpan span(tracer_, "knn", trace_parent,
                       tracer_ != nullptr ? MaskDetail(mask) : std::string());
  knn::KnnQuery query;
  query.point = root_->point();
  query.subspace = Subspace(mask);
  query.k = root_->k();
  query.exclude = root_->exclude();
  od = knn::OutlyingDegree(root_->engine(), query);
  if (shareable) store->Store(*root_->exclude(), mask, od);
  *source = OdEvaluator::ValueSource::kComputed;
  return od;
}

std::vector<double> ParallelEvaluator::EvaluateBatch(
    std::span<const uint64_t> masks, int trace_parent) {
  const size_t n = masks.size();
  std::vector<double> values(n, 0.0);

  // Pass 1, caller thread: memo lookups. Workers never touch the memo, so
  // during the wave it is read-only frozen state.
  std::vector<size_t> miss;
  miss.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!root_->LookupLocal(masks[i], &values[i])) miss.push_back(i);
  }
  if (miss.empty()) return values;

  // Where each missed value came from, aligned with `miss`.
  std::vector<OdEvaluator::ValueSource> sources(miss.size());
  auto eval_range = [&](size_t lo, size_t hi) {
    for (size_t j = lo; j < hi; ++j) {
      const size_t i = miss[j];
      values[i] = ComputeOne(masks[i], &sources[j], trace_parent);
    }
  };

  if (concurrency_ <= 1 || miss.size() < 2) {
    eval_range(0, miss.size());
  } else {
    // Deterministic chunks: ~4 per worker so a straggling chunk (cache-miss
    // heavy masks, a descheduled worker) rebalances across the tasks.
    const size_t chunk =
        chunk_size_ > 0
            ? static_cast<size_t>(chunk_size_)
            : std::max<size_t>(
                  1, (miss.size() + static_cast<size_t>(concurrency_) * 4 - 1) /
                         (static_cast<size_t>(concurrency_) * 4));
    const size_t num_chunks = (miss.size() + chunk - 1) / chunk;
    // At most `concurrency_` pool tasks ever run, regardless of the pool's
    // width — each pulls chunk indices from a shared counter. Which task
    // evaluates which chunk is timing-dependent, but every chunk writes
    // only its own pre-assigned slots, so results are not.
    std::atomic<size_t> next_chunk{0};
    auto drain_chunks = [&]() {
      for (size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
           c < num_chunks;
           c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
        eval_range(c * chunk, std::min(c * chunk + chunk, miss.size()));
      }
    };
    const size_t num_tasks =
        std::min(static_cast<size_t>(concurrency_), num_chunks);
    std::vector<std::future<void>> done;
    done.reserve(num_tasks);
    // Submission must not unwind while earlier tasks still reference this
    // frame; on failure, drain what was queued before rethrowing.
    try {
      for (size_t t = 0; t < num_tasks; ++t) {
        done.push_back(pool_->SubmitWithResult(drain_chunks));
      }
    } catch (...) {
      next_chunk.store(num_chunks, std::memory_order_relaxed);
      for (std::future<void>& f : done) f.wait();
      throw;
    }
    // wait() everything before get(): get() can rethrow, and unwinding
    // while other workers still write into `values` would be a
    // use-after-free.
    for (std::future<void>& f : done) f.wait();
    for (std::future<void>& f : done) f.get();
  }

  // Merge, caller thread, in batch order: deposit every non-memo value so
  // the root's memo and counters end up exactly as a sequential walk over
  // `masks` would have left them.
  for (size_t j = 0; j < miss.size(); ++j) {
    root_->Deposit(masks[miss[j]], values[miss[j]], sources[j]);
  }
  return values;
}

}  // namespace hos::search
