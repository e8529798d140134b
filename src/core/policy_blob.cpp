#include "core/policy_blob.h"

#include <array>
#include <bit>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace psme::core {

namespace {

// ---------------------------------------------------------------- layout
//
// All multi-byte fields are little-endian, written and read through the
// shared shift-based byte stores (core/wire_format.h) so the encoding is
// identical on any host. Format version 2 (the only one a reader
// speaks) is a 96-byte header, then ELEVEN sections each starting on an
// 8-byte boundary (zero padding between), position-independent and
// layout-identical to the in-memory image on a little-endian host: image
// name, SID-name offsets (u32[sid_count+1]), SID-name arena, SID probe
// slots (u32[sid_slot_count]), 32-byte entries, meta offsets
// (u32[2*entry_count+1]), meta arena, mode table, index slot keys (u64),
// index spans (u32 pairs), flat indices. A reader validates and then
// VIEWS the buffer in place — zero per-element copying. Section offsets
// are derived (never stored): the exact-packing equation "offsets chain
// by align8 and land on total_size" is itself a validation gate, so
// every header count is pinned by the blob size. DESIGN.md "Zero-copy
// image views" is the normative description.

constexpr std::array<std::byte, kPolicyBlobMagicSize> kMagic = {
    std::byte{'P'}, std::byte{'S'}, std::byte{'M'}, std::byte{'E'},
    std::byte{'P'}, std::byte{'I'}, std::byte{'M'}, std::byte{'G'}};

constexpr std::string_view kDomain = "policy blob";
constexpr std::size_t kHeaderSize = 96;
/// One packed entry on the wire — identical to the in-memory Entry
/// layout (pinned below), reserved bytes zero.
constexpr std::size_t kEntryRecordSize = 32;

using Entry = CompiledPolicyImage::Entry;
using SlotSpan = CompiledPolicyImage::SlotSpan;

// The zero-copy contract: the in-memory Entry/SlotSpan ARE the wire
// records on a little-endian host. Any layout drift must fail the build,
// not corrupt a fleet.
static_assert(sizeof(Entry) == kEntryRecordSize);
static_assert(alignof(Entry) == 8);
static_assert(std::is_trivially_copyable_v<Entry>);
static_assert(offsetof(Entry, subject) == 0);
static_assert(offsetof(Entry, object) == 4);
static_assert(offsetof(Entry, permission) == 8);
static_assert(offsetof(Entry, specificity) == 9);
static_assert(offsetof(Entry, reserved0) == 10);
static_assert(offsetof(Entry, reserved1) == 11);
static_assert(offsetof(Entry, priority) == 12);
static_assert(offsetof(Entry, mode_mask) == 16);
static_assert(offsetof(Entry, meta) == 24);
static_assert(offsetof(Entry, reserved2) == 28);
static_assert(sizeof(threat::Permission) == 1);
static_assert(sizeof(SlotSpan) == 8);
static_assert(std::is_trivially_copyable_v<SlotSpan>);
static_assert(offsetof(SlotSpan, offset) == 0);
static_assert(offsetof(SlotSpan, count) == 4);
static_assert(sizeof(mac::Sid) == 4);

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

// Header field offsets (bytes from blob start). Offsets 0..31 are the
// shared wire prefix (wire::kOffMagic .. wire::kOffPayloadHash).
constexpr std::size_t kOffFingerprint = 32;
constexpr std::size_t kOffImageVersion = 40;
constexpr std::size_t kOffSidCount = 48;
constexpr std::size_t kOffEntryCount = 52;
constexpr std::size_t kOffModeCount = 56;
constexpr std::size_t kOffSlotCount = 60;
constexpr std::size_t kOffFlatCount = 64;
constexpr std::size_t kOffNameLen = 68;
constexpr std::size_t kOffWildcardSid = 72;
constexpr std::size_t kOffDefaultAllow = 76;  // u8; bytes 77..79 reserved 0
constexpr std::size_t kOffSidSlotCount = 80;
constexpr std::size_t kOffNameArenaLen = 84;
constexpr std::size_t kOffMetaArenaLen = 88;
constexpr std::size_t kOffReserved = 92;  // u32, reserved 0

[[noreturn]] void reject(const std::string& what,
                         WireFault fault = WireFault::kMalformed) {
  wire::reject<PolicyBlobError>(kDomain, what, fault);
}

using wire::align8;
using wire::load_u32;
using wire::load_u64;
using wire::store_u32;
using wire::store_u64;

struct Header {
  std::uint32_t format_version = 0;
  std::uint64_t total_size = 0;
  std::uint64_t payload_hash = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t image_version = 0;
  std::uint32_t sid_count = 0;
  std::uint32_t entry_count = 0;
  std::uint32_t mode_count = 0;
  std::uint32_t slot_count = 0;
  std::uint32_t flat_count = 0;
  std::uint32_t name_len = 0;
  mac::Sid wildcard_sid = mac::kNullSid;
  bool default_allow = false;
  std::uint32_t sid_slot_count = 0;
  std::uint32_t name_arena_len = 0;
  std::uint32_t meta_arena_len = 0;
};

/// Derived section offsets (bytes from blob start). Never stored on
/// the wire: recomputing them from the header counts and requiring the
/// chain to land exactly on total_size pins every count.
struct Layout {
  std::size_t name = 0;
  std::size_t name_offsets = 0;
  std::size_t name_arena = 0;
  std::size_t sid_slots = 0;
  std::size_t entries = 0;
  std::size_t meta_offsets = 0;
  std::size_t meta_arena = 0;
  std::size_t modes = 0;
  std::size_t slot_keys = 0;
  std::size_t slot_spans = 0;
  std::size_t flat = 0;
  std::size_t total = 0;
};

[[nodiscard]] Layout section_layout(const Header& h) noexcept {
  Layout layout;
  std::size_t at = kHeaderSize;
  const auto section = [&at](std::size_t size) {
    const std::size_t offset = at;
    at = align8(at + size);
    return offset;
  };
  layout.name = section(h.name_len);
  layout.name_offsets = section(4 * (std::size_t{h.sid_count} + 1));
  layout.name_arena = section(h.name_arena_len);
  layout.sid_slots = section(4 * std::size_t{h.sid_slot_count});
  layout.entries = section(kEntryRecordSize * std::size_t{h.entry_count});
  layout.meta_offsets = section(4 * (2 * std::size_t{h.entry_count} + 1));
  layout.meta_arena = section(h.meta_arena_len);
  layout.modes = section(4 * std::size_t{h.mode_count});
  layout.slot_keys = section(8 * std::size_t{h.slot_count});
  layout.slot_spans = section(8 * std::size_t{h.slot_count});
  layout.flat = section(4 * std::size_t{h.flat_count});
  layout.total = at;
  return layout;
}

[[nodiscard]] constexpr bool power_of_two(std::uint32_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// Validates everything the fixed header plus the section-packing
/// equation can prove — all of it O(1) in policy size. This is the
/// ENTIRE structural gate of a kSealedStore attach; kUntrusted layers
/// the checksum (via validate_prefix), the semantic content passes and
/// the fingerprint gate on top.
[[nodiscard]] Header validate_header(std::span<const std::byte> blob,
                                     bool verify_payload_hash) {
  wire::validate_prefix<PolicyBlobError>(blob, kMagic,
                                         kPolicyBlobFormatVersion,
                                         kHeaderSize, kDomain,
                                         verify_payload_hash);
  Header h;
  h.format_version = kPolicyBlobFormatVersion;
  h.total_size = blob.size();
  h.payload_hash = load_u64(blob.data() + wire::kOffPayloadHash);
  h.fingerprint = load_u64(blob.data() + kOffFingerprint);
  h.image_version = load_u64(blob.data() + kOffImageVersion);
  h.sid_count = load_u32(blob.data() + kOffSidCount);
  h.entry_count = load_u32(blob.data() + kOffEntryCount);
  h.mode_count = load_u32(blob.data() + kOffModeCount);
  h.slot_count = load_u32(blob.data() + kOffSlotCount);
  h.flat_count = load_u32(blob.data() + kOffFlatCount);
  h.name_len = load_u32(blob.data() + kOffNameLen);
  h.wildcard_sid = load_u32(blob.data() + kOffWildcardSid);
  const std::uint8_t allow =
      std::to_integer<std::uint8_t>(blob[kOffDefaultAllow]);
  if (allow > 1) reject("default-allow flag is neither 0 nor 1");
  h.default_allow = allow == 1;
  h.sid_slot_count = load_u32(blob.data() + kOffSidSlotCount);
  h.name_arena_len = load_u32(blob.data() + kOffNameArenaLen);
  h.meta_arena_len = load_u32(blob.data() + kOffMetaArenaLen);
  // Reserved header bytes must be zero: with every other header byte
  // validated and the whole payload checksummed, this closes the last
  // gap — ANY single corrupted byte in a blob is rejected (test-pinned).
  for (std::size_t i = 1; i < 4; ++i) {
    if (blob[kOffDefaultAllow + i] != std::byte{0}) {
      reject("reserved header bytes not zero");
    }
  }
  if (load_u32(blob.data() + kOffReserved) != 0) {
    reject("reserved header bytes not zero");
  }

  if (h.mode_count > kMaxImageModes) {
    reject("mode table larger than the 64-bit mask allows");
  }
  if (!power_of_two(h.slot_count)) {
    reject("index slot count is not a power of two");
  }
  if (h.flat_count != h.entry_count) {
    reject("index covers " + std::to_string(h.flat_count) +
           " entries, image has " + std::to_string(h.entry_count));
  }
  if (!power_of_two(h.sid_slot_count)) {
    reject("SID probe-slot count is not a power of two");
  }
  // The serialiser's table always satisfies the interner's load factor
  // (< 2/3); enforcing it here guarantees empty probe slots exist, so
  // attached-table lookups terminate like built-table lookups.
  if (std::uint64_t{h.sid_count} * 3 >= std::uint64_t{h.sid_slot_count} * 2) {
    reject("SID probe-slot table over its load factor");
  }
  if (h.wildcard_sid == mac::kNullSid || h.wildcard_sid > h.sid_count) {
    reject("wildcard SID does not name '*'");
  }
  // Every count must be payable in payload bytes BEFORE anything is
  // reserved: a crafted header must earn a rejection, not a
  // multi-gigabyte allocation (memory-exhaustion DoS on the OTA path).
  const std::size_t payload_size = blob.size() - kHeaderSize;
  if (h.name_len > payload_size || h.sid_count > payload_size / 4 ||
      h.entry_count > payload_size / kEntryRecordSize ||
      h.slot_count > payload_size / 16 || h.flat_count > payload_size / 4 ||
      h.sid_slot_count > payload_size / 4 ||
      h.name_arena_len > payload_size || h.meta_arena_len > payload_size) {
    reject("section counts exceed the blob's own size");
  }
  // The exact-packing gate: the derived section chain must land on the
  // (prefix-validated) total size, so no header count can lie without
  // the sections sliding off the end or leaving slack.
  if (section_layout(h).total != blob.size()) {
    reject("section layout does not pack to the blob size");
  }
  return h;
}

}  // namespace

std::span<const std::byte, kPolicyBlobMagicSize> policy_blob_magic() noexcept {
  return kMagic;
}

std::vector<PolicyBlobSection> policy_blob_layout(
    std::span<const std::byte> blob) {
  const Header h = validate_header(blob, true);
  const Layout layout = section_layout(h);
  return {
      {"header", 0, kHeaderSize},
      {"image name", layout.name, h.name_len},
      {"sid name offsets", layout.name_offsets,
       4 * (std::size_t{h.sid_count} + 1)},
      {"sid name arena", layout.name_arena, h.name_arena_len},
      {"sid probe slots", layout.sid_slots, 4 * std::size_t{h.sid_slot_count}},
      {"entries", layout.entries,
       kEntryRecordSize * std::size_t{h.entry_count}},
      {"meta offsets", layout.meta_offsets,
       4 * (2 * std::size_t{h.entry_count} + 1)},
      {"meta arena", layout.meta_arena, h.meta_arena_len},
      {"mode table", layout.modes, 4 * std::size_t{h.mode_count}},
      {"index slot keys", layout.slot_keys, 8 * std::size_t{h.slot_count}},
      {"index slot spans", layout.slot_spans, 8 * std::size_t{h.slot_count}},
      {"flat entry indices", layout.flat, 4 * std::size_t{h.flat_count}},
  };
}

// ------------------------------------------------------------------ writer

std::vector<std::byte> PolicyBlobWriter::write(
    const CompiledPolicyImage& image) {
  const mac::SidTable& sids = image.sids();
  const auto sid_count = static_cast<std::uint32_t>(sids.size());
  const auto entry_count = static_cast<std::uint32_t>(image.entries_.size());
  const std::span<const mac::Sid> probe_slots = sids.probe_slots();

  std::size_t name_arena_len = 0;
  for (mac::Sid sid = 1; sid <= sid_count; ++sid) {
    name_arena_len += sids.name_of(sid).size();
  }
  std::size_t meta_arena_len = 0;
  for (std::uint32_t m = 0; m < entry_count; ++m) {
    meta_arena_len +=
        image.meta_id_view(m).size() + image.meta_reason_view(m).size();
  }
  if (name_arena_len > UINT32_MAX || meta_arena_len > UINT32_MAX) {
    reject("string arenas exceed the format's 32-bit section sizes");
  }

  Header h;
  h.sid_count = sid_count;
  h.entry_count = entry_count;
  h.mode_count = static_cast<std::uint32_t>(image.mode_sids_.size());
  h.slot_count = static_cast<std::uint32_t>(image.slot_keys_.size());
  h.flat_count = static_cast<std::uint32_t>(image.flat_index_.size());
  h.name_len = static_cast<std::uint32_t>(image.name_.size());
  h.sid_slot_count = static_cast<std::uint32_t>(probe_slots.size());
  h.name_arena_len = static_cast<std::uint32_t>(name_arena_len);
  h.meta_arena_len = static_cast<std::uint32_t>(meta_arena_len);
  const Layout layout = section_layout(h);

  // One zero-filled allocation: the inter-section padding and every
  // reserved byte are zero by construction.
  std::vector<std::byte> blob(layout.total);
  const auto copy_str = [&blob](std::size_t at, std::string_view s) {
    std::memcpy(blob.data() + at, s.data(), s.size());
    return at + s.size();
  };

  copy_str(layout.name, image.name_);

  // SID names: offsets array (sid_count + 1 cumulative positions), then
  // the concatenated arena — the attachable form of the interner,
  // together with its probe-slot array serialised verbatim.
  std::size_t arena_at = layout.name_arena;
  std::uint32_t cumulative = 0;
  store_u32(blob.data() + layout.name_offsets, 0);
  for (mac::Sid sid = 1; sid <= sid_count; ++sid) {
    const std::string_view name = sids.name_of(sid);
    arena_at = copy_str(arena_at, name);
    cumulative += static_cast<std::uint32_t>(name.size());
    store_u32(blob.data() + layout.name_offsets + 4 * std::size_t{sid},
              cumulative);
  }
  for (std::size_t i = 0; i < probe_slots.size(); ++i) {
    store_u32(blob.data() + layout.sid_slots + 4 * i, probe_slots[i]);
  }

  // Packed entries, field by field (no struct memcpy: the static_asserts
  // pin the in-memory layout for the READER's benefit, but the writer
  // still encodes through the shift stores so a big-endian host emits
  // identical bytes — the interop guarantee).
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    const Entry& entry = image.entries_[i];
    std::byte* at = blob.data() + layout.entries +
                    kEntryRecordSize * std::size_t{i};
    store_u32(at, entry.subject);
    store_u32(at + 4, entry.object);
    at[8] = std::byte(static_cast<unsigned char>(entry.permission));
    at[9] = std::byte(entry.specificity);
    store_u32(at + 12, static_cast<std::uint32_t>(entry.priority));
    store_u64(at + 16, entry.mode_mask);
    store_u32(at + 24, entry.meta);
  }

  // Audit metas: offsets (2*entry_count + 1 cumulative positions into
  // the arena), then the concatenated id/reason pairs. The two
  // permission-mismatch deny texts are derived — identical bytes, never
  // stored.
  arena_at = layout.meta_arena;
  cumulative = 0;
  store_u32(blob.data() + layout.meta_offsets, 0);
  for (std::uint32_t m = 0; m < entry_count; ++m) {
    const std::string_view id = image.meta_id_view(m);
    const std::string_view reason = image.meta_reason_view(m);
    arena_at = copy_str(arena_at, id);
    cumulative += static_cast<std::uint32_t>(id.size());
    store_u32(blob.data() + layout.meta_offsets + 4 * (2 * std::size_t{m} + 1),
              cumulative);
    arena_at = copy_str(arena_at, reason);
    cumulative += static_cast<std::uint32_t>(reason.size());
    store_u32(blob.data() + layout.meta_offsets + 4 * (2 * std::size_t{m} + 2),
              cumulative);
  }

  for (std::size_t i = 0; i < image.mode_sids_.size(); ++i) {
    store_u32(blob.data() + layout.modes + 4 * i, image.mode_sids_[i]);
  }

  // The sealed open-addressing index, verbatim: the loader validates it
  // (bounds, reachability, exact correspondence to the entries) instead
  // of rebuilding it.
  for (std::size_t i = 0; i < image.slot_keys_.size(); ++i) {
    store_u64(blob.data() + layout.slot_keys + 8 * i, image.slot_keys_[i]);
  }
  for (std::size_t i = 0; i < image.slot_spans_.size(); ++i) {
    store_u32(blob.data() + layout.slot_spans + 8 * i,
              image.slot_spans_[i].offset);
    store_u32(blob.data() + layout.slot_spans + 8 * i + 4,
              image.slot_spans_[i].count);
  }
  for (std::size_t i = 0; i < image.flat_index_.size(); ++i) {
    store_u32(blob.data() + layout.flat + 4 * i, image.flat_index_[i]);
  }

  std::memcpy(blob.data() + wire::kOffMagic, kMagic.data(), kMagic.size());
  store_u32(blob.data() + wire::kOffFormatVersion, kPolicyBlobFormatVersion);
  store_u32(blob.data() + wire::kOffEndianTag, wire::kEndianTag);
  store_u64(blob.data() + wire::kOffTotalSize, layout.total);
  store_u64(blob.data() + wire::kOffPayloadHash,
            wire::hash_payload(
                std::span<const std::byte>(blob).subspan(kHeaderSize)));
  store_u64(blob.data() + kOffFingerprint, image.fingerprint());
  store_u64(blob.data() + kOffImageVersion, image.version_);
  store_u32(blob.data() + kOffSidCount, h.sid_count);
  store_u32(blob.data() + kOffEntryCount, h.entry_count);
  store_u32(blob.data() + kOffModeCount, h.mode_count);
  store_u32(blob.data() + kOffSlotCount, h.slot_count);
  store_u32(blob.data() + kOffFlatCount, h.flat_count);
  store_u32(blob.data() + kOffNameLen, h.name_len);
  store_u32(blob.data() + kOffWildcardSid, image.wildcard_sid_);
  blob[kOffDefaultAllow] = std::byte(image.default_allow_ ? 1 : 0);
  store_u32(blob.data() + kOffSidSlotCount, h.sid_slot_count);
  store_u32(blob.data() + kOffNameArenaLen, h.name_arena_len);
  store_u32(blob.data() + kOffMetaArenaLen, h.meta_arena_len);
  return blob;
}

void PolicyBlobWriter::write_file(const CompiledPolicyImage& image,
                                  const std::string& path) {
  wire::write_file<PolicyBlobError>(write(image), path, kDomain);
}

// ------------------------------------------------------------------ reader

PolicyBlobInfo PolicyBlobReader::probe(std::span<const std::byte> blob) {
  const Header h = validate_header(blob, true);
  PolicyBlobInfo info;
  info.format_version = h.format_version;
  info.fingerprint = h.fingerprint;
  info.image_version = h.image_version;
  info.sid_count = h.sid_count;
  info.entry_count = h.entry_count;
  info.total_size = h.total_size;
  return info;
}

void PolicyBlobReader::validate_index(const CompiledPolicyImage& image,
                                      std::uint32_t entry_count) {
  // Semantic index validation: the loaded open-addressing table must be
  // EXACTLY a sealed index over the loaded entries — every slot key
  // reachable by its own probe sequence, every span in bounds and keyed
  // consistently, every entry indexed exactly once, every span in
  // decision order (priority desc, index asc) — the invariant
  // best_entry_for's first-match exit relies on.
  // (The fingerprint does not cover the index — it is derived data — so
  // this check is what keeps a corrupted index from silently serving
  // wrong decisions or walking out of bounds.)
  const std::size_t mask = image.slot_keys_.size() - 1;
  std::size_t occupied = 0;
  std::vector<bool> indexed(entry_count, false);
  for (std::size_t s = 0; s < image.slot_keys_.size(); ++s) {
    const std::uint64_t key = image.slot_keys_[s];
    if (key == 0) {
      if (image.slot_spans_[s].offset != 0 ||
          image.slot_spans_[s].count != 0) {
        reject("empty index slot carries a non-empty span");
      }
      continue;
    }
    ++occupied;
    // The probe sequence for `key` must land on this slot before any
    // empty slot, or evaluation could never reach it.
    std::size_t probe = mac::mix_av_key(key) & mask;
    std::size_t steps = 0;
    while (probe != s) {
      if (image.slot_keys_[probe] == 0 || image.slot_keys_[probe] == key ||
          ++steps > image.slot_keys_.size()) {
        reject("index slot unreachable by its probe sequence");
      }
      probe = (probe + 1) & mask;
    }
    const SlotSpan span = image.slot_spans_[s];
    if (span.count == 0) reject("occupied index slot with an empty span");
    if (span.offset > entry_count || span.count > entry_count - span.offset) {
      reject("index span overruns the flat entry list");
    }
    std::uint32_t previous = 0;
    for (std::uint32_t c = 0; c < span.count; ++c) {
      const std::uint32_t e = image.flat_index_[span.offset + c];
      if (e >= entry_count) reject("index names a nonexistent entry");
      const Entry& entry = image.entries_[e];
      if (CompiledPolicyImage::pair_key(entry.subject, entry.object) != key) {
        reject("index slot groups an entry under the wrong key");
      }
      if (indexed[e]) reject("entry indexed twice");
      if (c > 0) {
        const std::int32_t before = image.entries_[previous].priority;
        if (entry.priority > before ||
            (entry.priority == before && e < previous)) {
          reject("index span out of decision order");
        }
      }
      indexed[e] = true;
      previous = e;
    }
  }
  if (occupied == image.slot_keys_.size()) {
    reject("index has no empty slot (probe termination impossible)");
  }
  for (std::uint32_t e = 0; e < entry_count; ++e) {
    if (!indexed[e]) reject("entry missing from the index");
  }
}

CompiledPolicyImage PolicyBlobReader::load(
    std::span<const std::byte> blob, std::shared_ptr<mac::SidTable> sids) {
  // A span caller owns nothing the image could borrow: copy the blob
  // once into a refcounted, aligned buffer, then run the zero-copy load
  // over it (still no per-element copying).
  return load(PolicyBuffer::copy_of(blob), std::move(sids),
              BlobTrust::kUntrusted);
}

CompiledPolicyImage PolicyBlobReader::load(
    std::shared_ptr<const PolicyBuffer> buffer,
    std::shared_ptr<mac::SidTable> sids, BlobTrust trust) {
  if (buffer == nullptr) reject("null buffer");
  const std::span<const std::byte> blob = buffer->bytes();
  const bool untrusted = trust == BlobTrust::kUntrusted;
  const Header h = validate_header(blob, untrusted);
  const Layout layout = section_layout(h);
  const std::byte* base = blob.data();
  if (reinterpret_cast<std::uintptr_t>(base) % 8 != 0) {
    // operator new and mmap both hand out 8-aligned memory; an unaligned
    // buffer means the caller sliced one — not a blob the in-place views
    // can run on.
    reject("buffer is not 8-byte aligned (zero-copy views need alignment)");
  }

  CompiledPolicyImage image;
  image.name_.assign(reinterpret_cast<const char*>(base + layout.name),
                     h.name_len);
  image.version_ = h.image_version;
  image.default_allow_ = h.default_allow;
  image.wildcard_sid_ = h.wildcard_sid;

  const std::string_view name_arena(
      reinterpret_cast<const char*>(base + layout.name_arena),
      h.name_arena_len);

  if (kLittleEndianHost) {
    // ---- the zero-copy path: every section is viewed in place --------
    const std::span<const std::uint32_t> name_offsets(
        reinterpret_cast<const std::uint32_t*>(base + layout.name_offsets),
        std::size_t{h.sid_count} + 1);
    const std::span<const mac::Sid> sid_slots(
        reinterpret_cast<const mac::Sid*>(base + layout.sid_slots),
        h.sid_slot_count);

    // Name offsets must be monotone and cover the arena exactly before
    // anything dereferences through them. O(sid_count) — still needed at
    // the sealed level? No: name_at bounds-guards each access, so sealed
    // attach skips this (and a mangled offset degrades to a lookup miss,
    // never UB). The untrusted level proves it outright.
    if (untrusted) {
      if (name_offsets[0] != 0 || name_offsets[h.sid_count] != h.name_arena_len) {
        reject("SID name offsets do not cover the name arena");
      }
      for (std::uint32_t i = 0; i < h.sid_count; ++i) {
        if (name_offsets[i] > name_offsets[i + 1]) {
          reject("SID name offsets are not monotone");
        }
      }
    }

    if (sids != nullptr) {
      // A caller-provided table: replay every carried name and demand
      // the historical SID back (prefix-compatibility; inherently O(n),
      // so the zero-copy attach does not apply to this path). Offsets were validated above for untrusted;
      // replaying a sealed blob into a foreign table still needs them
      // sane, so walk defensively via name_at-equivalent bounds.
      image.sids_ = std::move(sids);
      image.sids_->reserve(h.sid_count);
      for (std::uint32_t i = 0; i < h.sid_count; ++i) {
        const std::uint32_t begin = name_offsets[i];
        const std::uint32_t end = name_offsets[i + 1];
        if (begin > end || end > h.name_arena_len) {
          reject("SID name offsets are not monotone");
        }
        const std::string_view name = name_arena.substr(begin, end - begin);
        const mac::Sid sid = image.sids_->intern(name);
        if (sid != i + 1) {
          reject("SID space mismatch: '" + std::string(name) +
                 "' interned to " + std::to_string(sid) + ", blob carries " +
                 std::to_string(i + 1));
        }
      }
    } else {
      // The boot path: attach the interner over the blob's own arena and
      // probe slots — O(1), nothing copied.
      image.sids_ = std::make_shared<mac::SidTable>(mac::SidTable::attach(
          name_arena, name_offsets, sid_slots, buffer));
      if (untrusted) {
        // The attached probe slots must be exactly a lookup structure
        // over the carried names: every SID placed once, and every name
        // findable back to its own SID (which proves reachability and
        // rules out shadowing duplicates — what a replay-intern would
        // prove).
        std::vector<bool> placed(h.sid_count, false);
        std::size_t occupied = 0;
        for (const mac::Sid sid : sid_slots) {
          if (sid == mac::kNullSid) continue;
          if (sid > h.sid_count) {
            reject("SID probe slot names a SID outside the carried table");
          }
          if (placed[sid - 1]) reject("SID placed in two probe slots");
          placed[sid - 1] = true;
          ++occupied;
        }
        if (occupied != h.sid_count) {
          reject("SID probe slots do not place every carried SID");
        }
        for (mac::Sid sid = 1; sid <= h.sid_count; ++sid) {
          if (image.sids_->find(image.sids_->name_of(sid)) != sid) {
            reject("SID probe slots disagree with interning order");
          }
        }
      }
    }
    if (untrusted && image.sids_->name_of(h.wildcard_sid) != "*") {
      reject("wildcard SID does not name '*'");
    }

    image.buffer_ = buffer;
    image.entries_ = {reinterpret_cast<const Entry*>(base + layout.entries),
                      h.entry_count};
    image.mode_sids_ = {reinterpret_cast<const mac::Sid*>(base + layout.modes),
                        h.mode_count};
    image.slot_keys_ = {
        reinterpret_cast<const std::uint64_t*>(base + layout.slot_keys),
        h.slot_count};
    image.slot_spans_ = {
        reinterpret_cast<const SlotSpan*>(base + layout.slot_spans),
        h.slot_count};
    image.flat_index_ = {
        reinterpret_cast<const std::uint32_t*>(base + layout.flat),
        h.flat_count};
    image.meta_offsets_ =
        reinterpret_cast<const std::uint32_t*>(base + layout.meta_offsets);
    image.meta_arena_ =
        reinterpret_cast<const char*>(base + layout.meta_arena);
    image.meta_arena_len_ = h.meta_arena_len;
    image.meta_count_ = h.entry_count;
    image.lazy_metas_.init(h.entry_count);
  } else {
    // ---- big-endian fallback: decode into owned storage --------------
    // The wire is little-endian; a BE host cannot alias it, so it pays
    // a copying reconstruction (correctness over flatness — no supported
    // target is BE, but the format promise holds everywhere).
    const std::byte* off_bytes = base + layout.name_offsets;
    std::vector<std::uint32_t> name_offsets(std::size_t{h.sid_count} + 1);
    for (std::size_t i = 0; i < name_offsets.size(); ++i) {
      name_offsets[i] = load_u32(off_bytes + 4 * i);
    }
    if (name_offsets[0] != 0 || name_offsets[h.sid_count] != h.name_arena_len) {
      reject("SID name offsets do not cover the name arena");
    }
    image.sids_ = sids != nullptr ? std::move(sids)
                                  : std::make_shared<mac::SidTable>();
    image.sids_->reserve(h.sid_count);
    for (std::uint32_t i = 0; i < h.sid_count; ++i) {
      if (name_offsets[i] > name_offsets[i + 1]) {
        reject("SID name offsets are not monotone");
      }
      const std::string_view name =
          name_arena.substr(name_offsets[i], name_offsets[i + 1] -
                                                 name_offsets[i]);
      const mac::Sid sid = image.sids_->intern(name);
      if (sid != i + 1) {
        reject("SID space mismatch: '" + std::string(name) +
               "' interned to " + std::to_string(sid) + ", blob carries " +
               std::to_string(i + 1));
      }
    }
    if (image.sids_->name_of(h.wildcard_sid) != "*") {
      reject("wildcard SID does not name '*'");
    }

    image.entries_store_.resize(h.entry_count);
    for (std::uint32_t i = 0; i < h.entry_count; ++i) {
      const std::byte* at =
          base + layout.entries + kEntryRecordSize * std::size_t{i};
      Entry& entry = image.entries_store_[i];
      entry.subject = load_u32(at);
      entry.object = load_u32(at + 4);
      entry.permission =
          static_cast<threat::Permission>(std::to_integer<std::uint8_t>(at[8]));
      entry.specificity = std::to_integer<std::uint8_t>(at[9]);
      entry.priority = static_cast<std::int32_t>(load_u32(at + 12));
      entry.mode_mask = load_u64(at + 16);
      entry.meta = load_u32(at + 24);
    }
    const std::byte* moff = base + layout.meta_offsets;
    const std::string_view meta_arena(
        reinterpret_cast<const char*>(base + layout.meta_arena),
        h.meta_arena_len);
    image.metas_.reserve(h.entry_count);
    for (std::uint32_t m = 0; m < h.entry_count; ++m) {
      const std::uint32_t id_begin = load_u32(moff + 4 * (2 * std::size_t{m}));
      const std::uint32_t id_end = load_u32(moff + 4 * (2 * std::size_t{m} + 1));
      const std::uint32_t reason_end =
          load_u32(moff + 4 * (2 * std::size_t{m} + 2));
      if (id_begin > id_end || id_end > reason_end ||
          reason_end > h.meta_arena_len) {
        reject("meta offsets are not monotone");
      }
      CompiledPolicyImage::emplace_meta(
          image.metas_,
          std::string(meta_arena.substr(id_begin, id_end - id_begin)),
          image.entries_store_[m].permission,
          std::string(meta_arena.substr(id_end, reason_end - id_end)));
    }
    image.mode_store_.resize(h.mode_count);
    for (std::uint32_t i = 0; i < h.mode_count; ++i) {
      image.mode_store_[i] = load_u32(base + layout.modes + 4 * i);
    }
    image.slot_key_store_.resize(h.slot_count);
    image.slot_span_store_.resize(h.slot_count);
    for (std::uint32_t i = 0; i < h.slot_count; ++i) {
      image.slot_key_store_[i] = load_u64(base + layout.slot_keys + 8 * i);
      image.slot_span_store_[i] = {
          load_u32(base + layout.slot_spans + 8 * std::size_t{i}),
          load_u32(base + layout.slot_spans + 8 * std::size_t{i} + 4)};
    }
    image.flat_store_.resize(h.flat_count);
    for (std::uint32_t i = 0; i < h.flat_count; ++i) {
      image.flat_store_[i] = load_u32(base + layout.flat + 4 * i);
    }
    image.adopt_owned_storage();
  }

  if (untrusted) {
    // Per-entry validation over the bound views, folded into one
    // predicate so the accept path is a single branch ((sid - 1) < count
    // is the unsigned both-ends check: kNullSid wraps). Rejection re-runs
    // the parts for a precise message — the cold path can afford it.
    const auto check_sid = [&](mac::Sid sid, const char* what) {
      if (sid == mac::kNullSid || sid > h.sid_count) {
        reject(std::string(what) + " SID outside the carried table");
      }
    };
    for (std::uint32_t i = 0; i < h.entry_count; ++i) {
      const Entry& entry = image.entries_[i];
      const std::uint8_t specificity = static_cast<std::uint8_t>(
          (entry.subject != image.wildcard_sid_ ? 1 : 0) +
          (entry.object != image.wildcard_sid_ ? 1 : 0));
      const bool mode_bits_ok =
          h.mode_count >= 64 || (entry.mode_mask >> h.mode_count) == 0;
      const auto permission = static_cast<std::uint8_t>(entry.permission);
      if ((entry.subject - 1) >= h.sid_count ||
          (entry.object - 1) >= h.sid_count ||
          permission >
              static_cast<std::uint8_t>(threat::Permission::kReadWrite) ||
          entry.specificity != specificity || !mode_bits_ok ||
          entry.meta != i || entry.reserved0 != 0 || entry.reserved1 != 0 ||
          entry.reserved2 != 0) {
        check_sid(entry.subject, "entry subject");
        check_sid(entry.object, "entry object");
        if (permission >
            static_cast<std::uint8_t>(threat::Permission::kReadWrite)) {
          reject("entry permission byte out of range");
        }
        if (entry.specificity != specificity) {
          reject("entry specificity inconsistent with its SIDs");
        }
        if (!mode_bits_ok) {
          reject("entry mode mask names bits beyond the mode table");
        }
        if (entry.reserved0 != 0 || entry.reserved1 != 0 ||
            entry.reserved2 != 0) {
          reject("entry reserved bytes not zero");
        }
        reject("entry/meta correspondence broken");
      }
    }
    // Meta offsets must be monotone and cover the arena exactly (the
    // borrowed meta views and the fingerprint read through them).
    if (image.meta_arena_ != nullptr) {
      const std::uint32_t* moff = image.meta_offsets_;
      if (moff[0] != 0 ||
          moff[2 * std::size_t{h.entry_count}] != h.meta_arena_len) {
        reject("meta offsets do not cover the meta arena");
      }
      for (std::size_t i = 0; i < 2 * std::size_t{h.entry_count}; ++i) {
        if (moff[i] > moff[i + 1]) reject("meta offsets are not monotone");
      }
    }
    for (std::size_t i = 0; i < image.mode_sids_.size(); ++i) {
      const mac::Sid mode = image.mode_sids_[i];
      if (mode == mac::kNullSid || mode > h.sid_count) {
        reject("mode SID outside the carried table");
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (image.mode_sids_[j] == mode) {
          reject("duplicate mode SID in the mode table");
        }
      }
    }
    validate_index(image, h.entry_count);
  }

  image.default_allow_decision_ =
      Decision::allow("", "no matching rule; default allow");
  image.default_deny_decision_ =
      Decision::deny("", "no matching rule; default deny");

  // The final gate: the viewed image must fingerprint to exactly what
  // the writer recorded — computed straight off the arenas, no Meta
  // materialised. Skipped at the sealed level (it is O(n); the staging
  // pass already proved it for these bytes).
  if (untrusted && image.fingerprint() != h.fingerprint) {
    reject("fingerprint mismatch (content does not match manifest)",
           WireFault::kFingerprintMismatch);
  }
  return image;
}

CompiledPolicyImage PolicyBlobReader::load_file(
    const std::string& path, std::shared_ptr<mac::SidTable> sids,
    BlobTrust trust) {
  std::string error;
  std::shared_ptr<const PolicyBuffer> buffer =
      PolicyBuffer::map_file(path, &error);
  if (buffer == nullptr) reject(error);
  return load(std::move(buffer), std::move(sids), trust);
}

}  // namespace psme::core
