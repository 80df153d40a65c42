// OdCache: a sharded, mutex-striped LRU cache memoising OD(point, subspace)
// values across queries — the cross-query analogue of OdEvaluator's
// per-query memo. Repeated queries for the same point (hot keys in a
// serving workload) and overlapping screening sweeps hit the cache instead
// of re-running kNN searches.
//
// Concurrency: the key space is hashed over `num_shards` independent
// shards, each protected by its own mutex, so threads touching different
// shards never contend.
//
// Memory: a shard keeps its entries in fixed-size chunks, links them into
// the recency list by 32-bit index and finds them through an
// open-addressing table of entry indices — about 50 bytes per entry. (A
// std::list + std::unordered_map pair of node allocations took ~140.) The
// cache fills at the rate queries miss, so its footprint is what peak
// memory tracks on a cold-cache workload.
//
// Correctness under streaming ingest: OD(p, s) is a pure function of the
// *dataset contents*, k and metric — and appends change the contents — so
// every entry is keyed by the dataset version it was computed at. A lookup
// at version v can only ever return a value stored at exactly v, making it
// structurally impossible to serve an OD computed against an older dataset
// state; entries for dead versions age out of the LRU as new-version
// traffic displaces them. Queries bind their version with the VersionView
// adapter, the search::SharedOdStore implementation handed to OdEvaluator.

#ifndef HOS_SERVICE_OD_CACHE_H_
#define HOS_SERVICE_OD_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/atomic_counter.h"
#include "src/data/dataset.h"
#include "src/search/od_evaluator.h"

namespace hos::service {

struct OdCacheConfig {
  /// Total capacity in entries across all shards. One entry is one
  /// (version, point, subspace) → OD double, ~50 bytes with bookkeeping.
  size_t capacity = 1 << 20;
  /// Number of independent mutex-striped shards; rounded up to a power of
  /// two. More shards, less contention.
  int num_shards = 16;
};

class OdCache {
 public:
  explicit OdCache(OdCacheConfig config = {});

  /// True and fills `*od` when a value for (id, mask) computed at exactly
  /// `version` is present.
  bool Lookup(uint64_t version, data::PointId id, uint64_t mask, double* od);

  /// Records OD(id, mask) = od as computed at dataset version `version`.
  void Store(uint64_t version, data::PointId id, uint64_t mask, double od);

  /// Batched Lookup for the fused multi-query path: keys are bucketed by
  /// shard and every *touched shard* is visited under one lock acquisition
  /// — O(shards) instead of O(keys) lock traffic per batch (the per-point
  /// loop pays one acquisition per lookup even when all keys land on the
  /// same hot shard). found[i] is set to 1 and od[i] filled exactly when
  /// keys[i] is present at `version`; recency, hit/miss counters and
  /// returned values match a sequence of per-key Lookup calls.
  void LookupMulti(uint64_t version,
                   std::span<const search::SharedOdStore::OdKey> keys,
                   std::span<double> od, std::span<uint8_t> found);

  /// Batched Store with the same one-lock-per-touched-shard contract as
  /// LookupMulti.
  void StoreMulti(uint64_t version,
                  std::span<const search::SharedOdStore::OdKey> keys,
                  std::span<const double> od);

  /// SharedOdStore adapter binding one dataset version: the per-query
  /// bridge QueryService puts on the stack so OdEvaluator's lookups and
  /// stores are version-keyed without the evaluator knowing about
  /// versions. A null cache degrades to a no-op store.
  class VersionView : public search::SharedOdStore {
   public:
    VersionView(OdCache* cache, uint64_t version)
        : cache_(cache), version_(version) {}

    bool Lookup(data::PointId id, uint64_t mask, double* od) override {
      return cache_ != nullptr && cache_->Lookup(version_, id, mask, od);
    }
    void Store(data::PointId id, uint64_t mask, double od) override {
      if (cache_ != nullptr) cache_->Store(version_, id, mask, od);
    }
    void LookupMulti(std::span<const OdKey> keys, std::span<double> od,
                     std::span<uint8_t> found) override {
      if (cache_ == nullptr) {
        std::fill(found.begin(), found.end(), 0);
        return;
      }
      cache_->LookupMulti(version_, keys, od, found);
    }
    void StoreMulti(std::span<const OdKey> keys,
                    std::span<const double> od) override {
      if (cache_ != nullptr) cache_->StoreMulti(version_, keys, od);
    }

    uint64_t version() const { return version_; }

   private:
    OdCache* cache_;
    uint64_t version_;
  };

  /// Entries currently resident (sums shard sizes; approximate under
  /// concurrent mutation).
  size_t size() const;

  /// Drops every entry; counters are preserved.
  void Clear();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  /// hits / (hits + misses); 0 when no lookups happened.
  double hit_rate() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t capacity() const { return capacity_; }

 private:
  /// (dataset version, point id, subspace mask). The subspace mask of a
  /// lattice search fits 22 bits but masks up to 62 bits are legal, so all
  /// fields are kept whole.
  struct Key {
    uint64_t version;
    data::PointId id;
    uint64_t mask;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // splitmix64 over the packed fields: cheap and well distributed for
      // the dense id / sparse mask / slowly-advancing version structure of
      // the key space.
      uint64_t x = (static_cast<uint64_t>(key.id) << 1) ^ key.mask ^
                   (key.mask << 23) ^
                   (key.version * 0x9e3779b97f4a7c15ULL);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebULL;
      x ^= x >> 31;
      return static_cast<size_t>(x);
    }
  };

  /// One LRU shard (callers hold `mu`). Entries live in fixed-size chunks,
  /// so growth never moves them; evicted entries are recycled through a
  /// free list. The recency list (front = most recently used) and the free
  /// list are linked by entry index. `slots_` is a linear-probing table of
  /// entry index + 1 (0 = empty), at most 3/4 full, with backward-shift
  /// deletion so no tombstones accumulate.
  class Shard {
   public:
    static constexpr uint32_t kNone = UINT32_MAX;

    std::mutex mu;

    /// The entry holding `key`, or kNone.
    uint32_t Find(const Key& key, size_t hash) const;
    /// Moves an entry to the front of the recency list.
    void Touch(uint32_t entry);
    double& od(uint32_t entry) { return At(entry).od; }
    /// Adds an absent key at the front; when that takes the shard past
    /// `capacity` entries, evicts the least recently used and returns true.
    bool Insert(const Key& key, size_t hash, double value, size_t capacity);
    size_t size() const { return size_; }
    void Clear();

   private:
    struct Entry {
      Key key;
      double od;
      uint32_t prev;
      uint32_t next;  // also the free-list link
    };

    /// Home slot of a hash: its high bits, which are independent of the
    /// low bits that chose the shard.
    size_t HomeSlot(size_t hash) const {
      return static_cast<size_t>(static_cast<uint64_t>(hash) >>
                                 (64 - slot_bits_));
    }
    void Unlink(uint32_t entry);
    void PushFront(uint32_t entry);
    void EraseSlotOf(uint32_t entry);
    void Grow();

    static constexpr int kChunkBits = 10;  // 1024 entries, 40 KiB
    static constexpr uint32_t kChunkMask = (uint32_t{1} << kChunkBits) - 1;
    Entry& At(uint32_t entry) {
      return chunks_[entry >> kChunkBits][entry & kChunkMask];
    }
    const Entry& At(uint32_t entry) const {
      return chunks_[entry >> kChunkBits][entry & kChunkMask];
    }

    std::vector<std::unique_ptr<Entry[]>> chunks_;
    uint32_t allocated_ = 0;  // entries ever handed out
    std::vector<uint32_t> slots_;
    int slot_bits_ = 0;
    uint32_t head_ = kNone;
    uint32_t tail_ = kNone;
    uint32_t free_ = kNone;
    size_t size_ = 0;
  };

  Shard& ShardFor(const Key& key, size_t hash) const {
    return *shards_[hash & shard_mask_];
  }

  size_t capacity_;
  size_t per_shard_capacity_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable RelaxedCounter hits_;
  mutable RelaxedCounter misses_;
  mutable RelaxedCounter evictions_;
};

}  // namespace hos::service

#endif  // HOS_SERVICE_OD_CACHE_H_
