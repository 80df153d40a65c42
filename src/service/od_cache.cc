#include "src/service/od_cache.h"

#include <algorithm>

namespace hos::service {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

OdCache::OdCache(OdCacheConfig config) {
  const size_t num_shards =
      RoundUpToPowerOfTwo(std::max(config.num_shards, 1));
  shard_mask_ = num_shards - 1;
  capacity_ = std::max<size_t>(config.capacity, num_shards);
  // Entries are addressed by 32-bit index within a shard.
  per_shard_capacity_ = std::clamp<size_t>(capacity_ / num_shards, 1,
                                           Shard::kNone - 1);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

uint32_t OdCache::Shard::Find(const Key& key, size_t hash) const {
  if (slots_.empty()) return kNone;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(hash);; i = (i + 1) & mask) {
    if (slots_[i] == 0) return kNone;
    const uint32_t entry = slots_[i] - 1;
    if (At(entry).key == key) return entry;
  }
}

void OdCache::Shard::Unlink(uint32_t entry) {
  Entry& e = At(entry);
  (e.prev == kNone ? head_ : At(e.prev).next) = e.next;
  (e.next == kNone ? tail_ : At(e.next).prev) = e.prev;
}

void OdCache::Shard::PushFront(uint32_t entry) {
  Entry& e = At(entry);
  e.prev = kNone;
  e.next = head_;
  (head_ == kNone ? tail_ : At(head_).prev) = entry;
  head_ = entry;
}

void OdCache::Shard::Touch(uint32_t entry) {
  if (entry == head_) return;
  Unlink(entry);
  PushFront(entry);
}

void OdCache::Shard::EraseSlotOf(uint32_t entry) {
  const size_t mask = slots_.size() - 1;
  size_t hole = HomeSlot(KeyHash{}(At(entry).key));
  while (slots_[hole] != entry + 1) hole = (hole + 1) & mask;
  // Backward shift: pull later members of the probe run into the hole
  // unless their home slot lies cyclically in (hole, i].
  for (size_t i = (hole + 1) & mask; slots_[i] != 0; i = (i + 1) & mask) {
    const size_t home = HomeSlot(KeyHash{}(At(slots_[i] - 1).key));
    const bool stays = hole <= i ? (hole < home && home <= i)
                                 : (hole < home || home <= i);
    if (stays) continue;
    slots_[hole] = slots_[i];
    hole = i;
  }
  slots_[hole] = 0;
}

void OdCache::Shard::Grow() {
  slot_bits_ = std::max(slot_bits_ + 1, 4);
  slots_.assign(size_t{1} << slot_bits_, 0);
  const size_t mask = slots_.size() - 1;
  for (uint32_t entry = head_; entry != kNone; entry = At(entry).next) {
    size_t i = HomeSlot(KeyHash{}(At(entry).key));
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = entry + 1;
  }
}

bool OdCache::Shard::Insert(const Key& key, size_t hash, double value,
                            size_t capacity) {
  if (4 * (size_ + 1) > 3 * slots_.size()) Grow();
  uint32_t entry = free_;
  if (entry != kNone) {
    free_ = At(entry).next;
  } else {
    entry = allocated_++;
    if ((entry & kChunkMask) == 0) {
      chunks_.push_back(std::make_unique<Entry[]>(size_t{1} << kChunkBits));
    }
  }
  At(entry).key = key;
  At(entry).od = value;
  const size_t mask = slots_.size() - 1;
  size_t i = HomeSlot(hash);
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = entry + 1;
  PushFront(entry);
  if (++size_ <= capacity) return false;
  const uint32_t victim = tail_;
  EraseSlotOf(victim);
  Unlink(victim);
  At(victim).next = free_;
  free_ = victim;
  --size_;
  return true;
}

void OdCache::Shard::Clear() {
  chunks_.clear();
  chunks_.shrink_to_fit();
  allocated_ = 0;
  slots_.clear();
  slots_.shrink_to_fit();
  slot_bits_ = 0;
  head_ = tail_ = free_ = kNone;
  size_ = 0;
}

bool OdCache::Lookup(uint64_t version, data::PointId id, uint64_t mask,
                     double* od) {
  const Key key{version, id, mask};
  const size_t hash = KeyHash{}(key);
  Shard& shard = ShardFor(key, hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t entry = shard.Find(key, hash);
  if (entry == Shard::kNone) {
    ++misses_;
    return false;
  }
  shard.Touch(entry);
  *od = shard.od(entry);
  ++hits_;
  return true;
}

void OdCache::Store(uint64_t version, data::PointId id, uint64_t mask,
                    double od) {
  const Key key{version, id, mask};
  const size_t hash = KeyHash{}(key);
  Shard& shard = ShardFor(key, hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t entry = shard.Find(key, hash);
  if (entry != Shard::kNone) {
    shard.od(entry) = od;
    shard.Touch(entry);
    return;
  }
  if (shard.Insert(key, hash, od, per_shard_capacity_)) ++evictions_;
}

namespace {

/// Index-chaining scratch for grouping a key batch by shard without one
/// heap vector per shard: head[s] -> first key index in shard s, next[i]
/// -> following key index, kChainEnd terminates. Built back-to-front so
/// each chain walks the keys in their original (ascending) batch order.
constexpr size_t kChainEnd = static_cast<size_t>(-1);

}  // namespace

void OdCache::LookupMulti(uint64_t version,
                          std::span<const search::SharedOdStore::OdKey> keys,
                          std::span<double> od, std::span<uint8_t> found) {
  std::vector<size_t> head(shards_.size(), kChainEnd);
  std::vector<size_t> next(keys.size());
  for (size_t i = keys.size(); i-- > 0;) {
    const Key key{version, keys[i].id, keys[i].mask};
    const size_t s = KeyHash{}(key) & shard_mask_;
    next[i] = head[s];
    head[s] = i;
  }
  uint64_t hit_count = 0;
  uint64_t miss_count = 0;
  for (size_t s = 0; s < head.size(); ++s) {
    if (head[s] == kChainEnd) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = head[s]; i != kChainEnd; i = next[i]) {
      const Key key{version, keys[i].id, keys[i].mask};
      const uint32_t entry = shard.Find(key, KeyHash{}(key));
      if (entry == Shard::kNone) {
        found[i] = 0;
        ++miss_count;
        continue;
      }
      shard.Touch(entry);
      od[i] = shard.od(entry);
      found[i] = 1;
      ++hit_count;
    }
  }
  hits_ += hit_count;
  misses_ += miss_count;
}

void OdCache::StoreMulti(uint64_t version,
                         std::span<const search::SharedOdStore::OdKey> keys,
                         std::span<const double> od) {
  std::vector<size_t> head(shards_.size(), kChainEnd);
  std::vector<size_t> next(keys.size());
  for (size_t i = keys.size(); i-- > 0;) {
    const Key key{version, keys[i].id, keys[i].mask};
    const size_t s = KeyHash{}(key) & shard_mask_;
    next[i] = head[s];
    head[s] = i;
  }
  uint64_t eviction_count = 0;
  for (size_t s = 0; s < head.size(); ++s) {
    if (head[s] == kChainEnd) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = head[s]; i != kChainEnd; i = next[i]) {
      const Key key{version, keys[i].id, keys[i].mask};
      const size_t hash = KeyHash{}(key);
      const uint32_t entry = shard.Find(key, hash);
      if (entry != Shard::kNone) {
        shard.od(entry) = od[i];
        shard.Touch(entry);
        continue;
      }
      if (shard.Insert(key, hash, od[i], per_shard_capacity_)) {
        ++eviction_count;
      }
    }
  }
  evictions_ += eviction_count;
}

size_t OdCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->size();
  }
  return total;
}

void OdCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->Clear();
  }
}

double OdCache::hit_rate() const {
  const uint64_t h = hits_;
  const uint64_t total = h + misses_;
  return total == 0 ? 0.0 : static_cast<double>(h) / total;
}

}  // namespace hos::service
