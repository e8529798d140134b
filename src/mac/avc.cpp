#include "mac/avc.h"

#include <algorithm>
#include <stdexcept>

#include "mac/batch_probe.h"
#include "mac/stage_counters.h"

namespace psme::mac {

namespace {

[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Avc::Avc(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("Avc: capacity must be positive");
  }
  nodes_.resize(capacity_);
  // ~2x slots per bucket array keeps chains around one node on average.
  buckets_.assign(next_pow2(capacity_ * 2), kNil);
  reset_free_list();
}

void Avc::reset_free_list() noexcept {
  for (std::uint32_t i = 0; i + 1 < capacity_; ++i) {
    nodes_[i].hash_next = i + 1;
  }
  nodes_[capacity_ - 1].hash_next = kNil;
  free_head_ = 0;
  lru_head_ = lru_tail_ = kNil;
  size_ = 0;
}

void Avc::lru_unlink(std::uint32_t n) noexcept {
  Node& node = nodes_[n];
  if (node.lru_prev != kNil) {
    nodes_[node.lru_prev].lru_next = node.lru_next;
  } else {
    lru_head_ = node.lru_next;
  }
  if (node.lru_next != kNil) {
    nodes_[node.lru_next].lru_prev = node.lru_prev;
  } else {
    lru_tail_ = node.lru_prev;
  }
  node.lru_prev = node.lru_next = kNil;
}

void Avc::lru_push_front(std::uint32_t n) noexcept {
  Node& node = nodes_[n];
  node.lru_prev = kNil;
  node.lru_next = lru_head_;
  if (lru_head_ != kNil) nodes_[lru_head_].lru_prev = n;
  lru_head_ = n;
  if (lru_tail_ == kNil) lru_tail_ = n;
}

void Avc::chain_remove(std::uint32_t bucket, std::uint32_t n) noexcept {
  std::uint32_t cur = buckets_[bucket];
  if (cur == n) {
    buckets_[bucket] = nodes_[n].hash_next;
    return;
  }
  while (cur != kNil) {
    const std::uint32_t next = nodes_[cur].hash_next;
    if (next == n) {
      nodes_[cur].hash_next = nodes_[n].hash_next;
      return;
    }
    cur = next;
  }
}

void Avc::revalidate(const PolicyDb& db) noexcept {
  if (db.seqno() != db_seqno_) {
    // Policy reload invalidates cached vectors. The very first query merely
    // synchronises the seqno — an empty cache has nothing to flush.
    if (size_ != 0) flush();
    db_seqno_ = db.seqno();
  }
}

AccessVector Avc::query(const PolicyDb& db, Sid source, Sid target, Sid cls) {
  revalidate(db);
  return lookup(db, pack_av_key(source, target, cls));
}

void Avc::query_batch(const PolicyDb& db, std::span<const std::uint64_t> keys,
                      std::span<AccessVector> out) {
  if (keys.size() != out.size()) {
    throw std::invalid_argument("Avc::query_batch: span lengths differ");
  }
  revalidate(db);  // one seqno check for the whole batch

  // Staged waves over stack-resident chunks: hash+prefetch bucket heads,
  // probe the cache, collect the misses, answer them in one
  // PolicyDb::lookup_batch sweep, then fill. The fill wave RE-PROBES
  // each missed key first — an earlier fill in the same wave may have
  // inserted a duplicate key, and the re-probe reproduces the scalar
  // interleaving's counts exactly (second occurrence = hit). Stat and
  // eviction totals are therefore identical to per-key lookup(); only
  // the LRU RECENCY ORDER may differ (a chunk's hits bump before its
  // fills land), which no totals-level observer can see.
  constexpr std::size_t kChunk = 256;
  std::uint32_t bucket_idx[kChunk];
  std::uint32_t miss[kChunk];
  std::uint64_t miss_keys[kChunk];
  AccessVector miss_avs[kChunk];

  const std::size_t n = keys.size();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t count = std::min(kChunk, n - base);
    std::size_t miss_count = 0;
    {
      PSME_STAGE_TIMER(avc_probe, count);
      for (std::size_t j = 0; j < count; ++j) {
        bucket_idx[j] = bucket_of(keys[base + j]);
        probe::prefetch(&buckets_[bucket_idx[j]]);
      }
      for (std::size_t j = 0; j < count; ++j) {
        const std::uint64_t key = keys[base + j];
        const std::uint32_t slot = find_node(bucket_idx[j], key);
        if (slot != kNil) {
          out[base + j] = hit_slot(slot);
        } else {
          miss[miss_count] = static_cast<std::uint32_t>(j);
          miss_keys[miss_count] = key;
          ++miss_count;
        }
      }
    }
    if (miss_count != 0) {
      {
        PSME_STAGE_TIMER(db_probe, miss_count);
        db.lookup_batch(std::span<const std::uint64_t>(miss_keys, miss_count),
                        std::span<AccessVector>(miss_avs, miss_count));
      }
      PSME_STAGE_TIMER(avc_probe, 0);
      for (std::size_t k = 0; k < miss_count; ++k) {
        const std::uint32_t j = miss[k];
        const std::uint32_t slot = find_node(bucket_idx[j], miss_keys[k]);
        if (slot != kNil) {
          out[base + j] = hit_slot(slot);
        } else {
          ++stats_.misses;
          fill_slot(bucket_idx[j], miss_keys[k], miss_avs[k]);
          out[base + j] = miss_avs[k];
        }
      }
    }
  }
}

std::uint32_t Avc::find_node(std::uint32_t bucket,
                               std::uint64_t key) const noexcept {
  for (std::uint32_t n = buckets_[bucket]; n != kNil; n = nodes_[n].hash_next) {
    if (nodes_[n].key == key) return n;
  }
  return kNil;
}

AccessVector Avc::hit_slot(std::uint32_t n) noexcept {
  ++stats_.hits;
  if (lru_head_ != n) {
    lru_unlink(n);
    lru_push_front(n);
  }
  return nodes_[n].av;
}

void Avc::fill_slot(std::uint32_t bucket, std::uint64_t key,
                    AccessVector av) noexcept {
  std::uint32_t n;
  if (free_head_ != kNil) {
    n = free_head_;
    free_head_ = nodes_[n].hash_next;
    ++size_;
  } else {
    // Cache full: recycle the least recently used slot.
    n = lru_tail_;
    chain_remove(bucket_of(nodes_[n].key), n);
    lru_unlink(n);
    ++stats_.evictions;
  }
  Node& node = nodes_[n];
  node.key = key;
  node.av = av;
  node.hash_next = buckets_[bucket];
  buckets_[bucket] = n;
  lru_push_front(n);
}

AccessVector Avc::lookup(const PolicyDb& db, std::uint64_t key) {
  const std::uint32_t bucket = bucket_of(key);
  const std::uint32_t n = find_node(bucket, key);
  if (n != kNil) return hit_slot(n);

  ++stats_.misses;
  // Unpack the triple for the database consultation; null components fall
  // out of pack_av_key unchanged, so a null-SID query still answers 0.
  const AvKeyParts parts = unpack_av_key(key);
  const AccessVector av = db.lookup(parts.source, parts.target, parts.cls);
  fill_slot(bucket, key, av);
  return av;
}

AccessVector Avc::query(const PolicyDb& db, std::string_view source_type,
                        std::string_view target_type,
                        std::string_view object_class) {
  // Interning through a const database is deliberate: like the SELinux
  // sidtab, the interner grows at enforcement time without changing any
  // SID already issued, so the compiled policy is unaffected.
  SidTable& sids = *db.sid_table();
  const Sid source = sids.intern(source_type);
  const Sid target = sids.intern(target_type);
  const Sid cls = sids.intern(object_class);
  if (cls > kMaxClassSid) {
    // A class name interned beyond the packed-key range cannot be cached
    // without aliasing; answer from the database directly (still counted
    // as a miss so the stats stay truthful).
    ++stats_.misses;
    return db.lookup(source_type, target_type, object_class);
  }
  return query(db, source, target, cls);
}

bool Avc::allowed(const PolicyDb& db, std::string_view source_type,
                  std::string_view target_type, std::string_view object_class,
                  std::string_view perm) {
  const ClassDef* cls = db.find_class(object_class);
  if (cls == nullptr) return false;
  const auto bit = cls->bit(perm);
  if (!bit.has_value()) return false;
  return (query(db, source_type, target_type, object_class) & *bit) != 0;
}

void Avc::flush() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), kNil);
  reset_free_list();
  ++stats_.flushes;
}

}  // namespace psme::mac
