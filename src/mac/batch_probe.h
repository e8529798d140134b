// psme::mac — probe primitives for the flat hash tables.
//
// Every hot table in the repo (the policy AvTable, the sealed
// CompiledPolicyImage index) is the same shape: a power-of-two
// open-addressing slot array of 64-bit keys, linear probing, key 0 =
// empty. find_slot is the one probe they all share: a one-slot scalar
// walk whose first step — a compare against the origin slot — is peeled
// inline. Well-sized tables answer most probes at depth 1 (the
// probe-depth histogram in BENCH_fleet_eval.json), so that compare is
// the whole cost of a typical lookup. Group scans only shorten chain
// tails, and SWAR/SSE2 variants of the walk measured within noise of it
// on every policy size (DESIGN.md §7).
//
// Prefetch: probe waves want the NEXT key's slot line in flight while
// the current key resolves; prefetch_slot wraps __builtin_prefetch so
// callers stay portable (it degrades to a no-op where unsupported).
#pragma once

#include <cstddef>
#include <cstdint>

namespace psme::mac::probe {

/// Generic read prefetch (the AVC batch waves request bucket-head lines
/// ahead of their chain walks). No-op where the builtin is unavailable.
inline void prefetch(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, 0 /* read */, 1 /* low temporal locality */);
#else
  (void)address;
#endif
}

/// Read prefetch of the slot line a probe will start at.
inline void prefetch_slot(const std::uint64_t* slots, std::size_t index) noexcept {
  prefetch(slots + index);
}

/// find_slot's walk past the origin slot (out of line; see find_slot).
[[nodiscard]] std::size_t find_slot_tail(const std::uint64_t* slots,
                                         std::size_t mask, std::uint64_t key,
                                         std::size_t origin) noexcept;

/// Finds `key` in the open-addressing table `slots` (power-of-two size
/// `mask + 1`, linear probing, 0 = empty): returns the first slot index
/// in probe order from `origin` whose key equals `key` OR is empty —
/// the caller distinguishes hit from miss by re-reading the slot. The
/// walk is bounded by one full table revolution (a full table with no
/// match returns `origin`, which the caller sees as a mismatch — fail
/// closed). The origin slot is checked inline; the rest of the chain is
/// one out-of-line call, so every inlined call site stays one compare.
[[nodiscard]] inline std::size_t find_slot(const std::uint64_t* slots,
                                           std::size_t mask,
                                           std::uint64_t key,
                                           std::size_t origin) noexcept {
  const std::uint64_t first = slots[origin];
  if (first == key || first == 0 || mask == 0) return origin;
  return find_slot_tail(slots, mask, key, origin);
}

/// Probe depth (slots inspected, >= 1) find_slot pays for `key` — its
/// observability twin, feeding the bench probe-depth histograms. Counts
/// up to the same one-revolution bound.
[[nodiscard]] inline std::uint32_t probe_depth(const std::uint64_t* slots,
                                               std::size_t mask,
                                               std::uint64_t key,
                                               std::size_t origin) noexcept {
  std::size_t i = origin;
  for (std::uint32_t steps = 1;; ++steps) {
    const std::uint64_t k = slots[i];
    if (k == key || k == 0 || steps > mask) return steps;
    i = (i + 1) & mask;
  }
}

}  // namespace psme::mac::probe
