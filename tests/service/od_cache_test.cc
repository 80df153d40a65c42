#include "src/service/od_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <list>
#include <map>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

namespace hos::service {
namespace {

// Dataset version most tests pin; the version-keying tests vary it.
constexpr uint64_t kV = 7;

TEST(OdCacheTest, MissThenHit) {
  OdCache cache;
  double od = 0.0;
  EXPECT_FALSE(cache.Lookup(kV, 7, 0b101, &od));
  cache.Store(kV, 7, 0b101, 3.25);
  ASSERT_TRUE(cache.Lookup(kV, 7, 0b101, &od));
  EXPECT_EQ(od, 3.25);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(OdCacheTest, KeysAreDistinctPerPointAndSubspace) {
  OdCache cache;
  cache.Store(kV, 1, 0b01, 1.0);
  cache.Store(kV, 1, 0b10, 2.0);
  cache.Store(kV, 2, 0b01, 3.0);
  double od = 0.0;
  ASSERT_TRUE(cache.Lookup(kV, 1, 0b01, &od));
  EXPECT_EQ(od, 1.0);
  ASSERT_TRUE(cache.Lookup(kV, 1, 0b10, &od));
  EXPECT_EQ(od, 2.0);
  ASSERT_TRUE(cache.Lookup(kV, 2, 0b01, &od));
  EXPECT_EQ(od, 3.0);
  EXPECT_EQ(cache.size(), 3u);
}

// The streaming-ingest acceptance property: a value stored at one dataset
// version is unreachable from any other version, so the cache can never
// serve an OD computed against an older (or newer) dataset state.
TEST(OdCacheTest, NeverServesAcrossDatasetVersions) {
  OdCache cache;
  cache.Store(/*version=*/1, 5, 0b11, 4.5);
  double od = 0.0;
  EXPECT_FALSE(cache.Lookup(/*version=*/2, 5, 0b11, &od));
  EXPECT_FALSE(cache.Lookup(/*version=*/0, 5, 0b11, &od));
  ASSERT_TRUE(cache.Lookup(/*version=*/1, 5, 0b11, &od));
  EXPECT_EQ(od, 4.5);

  // Both versions may coexist; each lookup resolves to its own epoch.
  cache.Store(/*version=*/2, 5, 0b11, 9.75);
  ASSERT_TRUE(cache.Lookup(/*version=*/1, 5, 0b11, &od));
  EXPECT_EQ(od, 4.5);
  ASSERT_TRUE(cache.Lookup(/*version=*/2, 5, 0b11, &od));
  EXPECT_EQ(od, 9.75);
}

TEST(OdCacheTest, VersionViewBindsItsVersion) {
  OdCache cache;
  OdCache::VersionView v1(&cache, 1);
  OdCache::VersionView v2(&cache, 2);

  v1.Store(3, 0b100, 1.5);
  double od = 0.0;
  ASSERT_TRUE(v1.Lookup(3, 0b100, &od));
  EXPECT_EQ(od, 1.5);
  EXPECT_FALSE(v2.Lookup(3, 0b100, &od));

  // A view over a null cache is a no-op store (cache disabled).
  OdCache::VersionView disabled(nullptr, 1);
  disabled.Store(3, 0b100, 2.0);
  EXPECT_FALSE(disabled.Lookup(3, 0b100, &od));
}

TEST(OdCacheTest, EvictsLeastRecentlyUsedWithinShard) {
  OdCacheConfig config;
  config.num_shards = 1;  // single shard makes eviction order observable
  config.capacity = 3;
  OdCache cache(config);

  cache.Store(kV, 1, 1, 1.0);
  cache.Store(kV, 2, 1, 2.0);
  cache.Store(kV, 3, 1, 3.0);

  // Touch key 1 so key 2 becomes the LRU victim.
  double od = 0.0;
  ASSERT_TRUE(cache.Lookup(kV, 1, 1, &od));
  cache.Store(kV, 4, 1, 4.0);  // evicts (2, 1)

  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Lookup(kV, 2, 1, &od));
  EXPECT_TRUE(cache.Lookup(kV, 1, 1, &od));
  EXPECT_TRUE(cache.Lookup(kV, 3, 1, &od));
  EXPECT_TRUE(cache.Lookup(kV, 4, 1, &od));
  EXPECT_EQ(cache.size(), 3u);
}

// Dead-version entries are not pinned: they age out through the same LRU
// as any other key once new-version traffic displaces them.
TEST(OdCacheTest, OldVersionEntriesAgeOutUnderNewVersionTraffic) {
  OdCacheConfig config;
  config.num_shards = 1;
  config.capacity = 4;
  OdCache cache(config);

  cache.Store(/*version=*/1, 1, 1, 1.0);
  cache.Store(/*version=*/1, 2, 1, 2.0);
  for (data::PointId id = 1; id <= 4; ++id) {
    cache.Store(/*version=*/2, id, 1, 10.0 + id);
  }
  double od = 0.0;
  EXPECT_FALSE(cache.Lookup(/*version=*/1, 1, 1, &od));
  EXPECT_FALSE(cache.Lookup(/*version=*/1, 2, 1, &od));
  ASSERT_TRUE(cache.Lookup(/*version=*/2, 4, 1, &od));
  EXPECT_EQ(od, 14.0);
}

TEST(OdCacheTest, StoreOfExistingKeyUpdatesAndRefreshes) {
  OdCacheConfig config;
  config.num_shards = 1;
  config.capacity = 2;
  OdCache cache(config);

  cache.Store(kV, 1, 1, 1.0);
  cache.Store(kV, 2, 1, 2.0);
  cache.Store(kV, 1, 1, 10.0);  // refresh: key 2 is now LRU
  cache.Store(kV, 3, 1, 3.0);   // evicts (2, 1)

  double od = 0.0;
  ASSERT_TRUE(cache.Lookup(kV, 1, 1, &od));
  EXPECT_EQ(od, 10.0);
  EXPECT_FALSE(cache.Lookup(kV, 2, 1, &od));
}

TEST(OdCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  OdCacheConfig config;
  config.num_shards = 5;
  OdCache cache(config);
  EXPECT_EQ(cache.num_shards(), 8);
}

TEST(OdCacheTest, ClearEmptiesButKeepsCounters) {
  OdCache cache;
  cache.Store(kV, 1, 1, 1.0);
  double od = 0.0;
  ASSERT_TRUE(cache.Lookup(kV, 1, 1, &od));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(kV, 1, 1, &od));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// The shard's open-addressing table under heavy churn: random stores,
// lookups and their batched forms over a key space several times the
// capacity (growth, eviction, backward-shift deletion, free-list reuse,
// Clear), checked step by step against a plain list-based LRU model.
TEST(OdCacheTest, MatchesReferenceLruUnderChurn) {
  OdCacheConfig config;
  config.num_shards = 1;
  config.capacity = 97;
  OdCache cache(config);

  using ModelKey = std::tuple<uint64_t, data::PointId, uint64_t>;
  std::list<std::pair<ModelKey, double>> lru;  // front = most recent
  std::map<ModelKey, std::list<std::pair<ModelKey, double>>::iterator> index;
  uint64_t evictions = 0;
  const auto model_lookup = [&](const ModelKey& key, double* od) {
    auto it = index.find(key);
    if (it == index.end()) return false;
    lru.splice(lru.begin(), lru, it->second);
    *od = it->second->second;
    return true;
  };
  const auto model_store = [&](const ModelKey& key, double od) {
    auto it = index.find(key);
    if (it != index.end()) {
      it->second->second = od;
      lru.splice(lru.begin(), lru, it->second);
      return;
    }
    lru.emplace_front(key, od);
    index[key] = lru.begin();
    if (lru.size() > config.capacity) {
      index.erase(lru.back().first);
      lru.pop_back();
      ++evictions;
    }
  };

  std::mt19937_64 rng(15004);
  const auto random_key = [&] {
    return ModelKey{rng() % 3, static_cast<data::PointId>(rng() % 150),
                    1 + rng() % 3};
  };
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng() % 100;
    if (op == 0) {
      cache.Clear();
      lru.clear();
      index.clear();
    } else if (op < 45) {
      const ModelKey key = random_key();
      const double od = static_cast<double>(step);
      cache.Store(std::get<0>(key), std::get<1>(key), std::get<2>(key), od);
      model_store(key, od);
    } else if (op < 90) {
      const ModelKey key = random_key();
      double got = -1.0, want = -1.0;
      ASSERT_EQ(cache.Lookup(std::get<0>(key), std::get<1>(key),
                             std::get<2>(key), &got),
                model_lookup(key, &want))
          << "step " << step;
      ASSERT_EQ(got, want) << "step " << step;
    } else {
      // A batch on one version, stored or looked up in batch order.
      const uint64_t version = rng() % 3;
      std::vector<search::SharedOdStore::OdKey> keys(1 + rng() % 12);
      std::vector<double> ods(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        keys[i] = {static_cast<data::PointId>(rng() % 150), 1 + rng() % 3};
        ods[i] = static_cast<double>(step) + 0.5 * static_cast<double>(i);
      }
      if (op < 95) {
        cache.StoreMulti(version, keys, ods);
        for (size_t i = 0; i < keys.size(); ++i) {
          model_store({version, keys[i].id, keys[i].mask}, ods[i]);
        }
      } else {
        std::vector<double> got(keys.size(), -1.0);
        std::vector<uint8_t> found(keys.size());
        cache.LookupMulti(version, keys, got, found);
        for (size_t i = 0; i < keys.size(); ++i) {
          double want = -1.0;
          ASSERT_EQ(found[i] == 1,
                    model_lookup({version, keys[i].id, keys[i].mask}, &want))
              << "step " << step << " key " << i;
          if (found[i] == 1) ASSERT_EQ(got[i], want) << "step " << step;
        }
      }
    }
    ASSERT_EQ(cache.size(), lru.size()) << "step " << step;
  }
  EXPECT_EQ(cache.evictions(), evictions);
  EXPECT_GT(evictions, 1000u);
}

// Striping smoke test: hammer one cache from many threads across a key
// space larger than capacity; under TSan this exercises the per-shard
// locking, and every successful lookup must return the stored value.
// Threads alternate between two dataset versions to cover version-keyed
// paths under concurrency too.
TEST(OdCacheTest, ConcurrentMixedWorkloadIsConsistent) {
  OdCacheConfig config;
  config.capacity = 256;
  config.num_shards = 8;
  OdCache cache(config);

  auto value_for = [](uint64_t version, data::PointId id, uint64_t mask) {
    return static_cast<double>(version) * 1e6 +
           static_cast<double>(id) * 1000.0 + static_cast<double>(mask);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &value_for, t]() {
      for (int round = 0; round < 200; ++round) {
        for (uint64_t key = 0; key < 64; ++key) {
          const uint64_t version = (t + round) % 2;
          const data::PointId id = static_cast<data::PointId>((t + key) % 32);
          const uint64_t mask = key % 16 + 1;
          double od = 0.0;
          if (cache.Lookup(version, id, mask, &od)) {
            EXPECT_EQ(od, value_for(version, id, mask));
          } else {
            cache.Store(version, id, mask, value_for(version, id, mask));
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.size(), 256u);
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace hos::service
