// psme::core — the SID-native compiled form of a policy set.
//
// A CompiledPolicyImage is what a fleet actually evaluates against: every
// subject, object and mode name has been interned through a shared
// mac::SidTable exactly once, rules are packed fixed-size entries indexed
// by the (subject SID, object SID) pair, and the audit strings a Decision
// carries (rule id, allow reason) are materialised at compile time as
// prototype Decisions. Evaluation therefore never hashes, compares or
// constructs a string — a batched evaluation is index probes plus
// copy-assignments into caller-owned Decision storage (which reuses its
// heap capacity across ticks).
//
// Storage comes in two modes behind one query API (DESIGN.md "Zero-copy
// image views"):
//  - OWNED: the compile, big-endian blob-load and delta-apply paths fill the
//    *_store_ vectors; the evaluation views alias them.
//  - BORROWED: the zero-copy blob loader points the views straight
//    into the validated blob buffer (entries, index, mode table, meta
//    arena all used in place; a shared PolicyBuffer pins the bytes).
//    Audit Metas are then materialised LAZILY, at most once per rule, by
//    a lock-free page table — the first decision that needs a rule's
//    audit strings builds them from the arena; every later one reuses
//    the same heap Meta, so the evaluate API still returns stable
//    references and boot stays O(1) in policy size.
//
// Images are immutable once built; millions of simulated vehicles share
// one image and one interner (the paper's fleet-scale affordability
// argument). PolicySet keeps its string-rule form as the editable source
// of truth and lazily compiles itself to an image; PolicyCompiler can
// skip the string stage entirely and emit an image straight from a
// threat model (compile_to_image).
//
// Concurrency (DESIGN.md "Concurrency model"): a sealed image is an
// immutable value — Builder::build() is the only producer, there are no
// mutators, and every observer is const. Share it BY REFERENCE across
// any number of threads and call evaluate / evaluate_batch / resolve
// concurrently without synchronisation, provided build() happened-before
// the readers started (thread creation, or a published snapshot, gives
// that for free). Debug builds assert sealed-ness on the evaluate paths.
// car::FleetEvaluator::tick_parallel leans on exactly this guarantee.
// Lazy Meta materialisation in borrowed mode is the one internal
// mutation, and it is made read-equivalent: a compare-exchange installs
// each Meta exactly once, losers delete their copy, and an installed
// Meta is never freed before the image dies — references stay stable.
// The one shared MUTABLE neighbour is the SidTable behind sid_table():
// interning a NEW name grows it, so the single-writer rule applies there.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/policy.h"
#include "mac/sid_table.h"

namespace psme::core {

class PolicyBuffer;

/// Widest mode condition an image entry can carry: one bit per distinct
/// operational mode named by any rule. Sixty-four is far beyond any real
/// vehicle (the case study has three); the builder throws beyond it.
inline constexpr std::size_t kMaxImageModes = 64;

class CompiledPolicyImage {
 public:
  /// One packed rule. `subject`/`object` equal to wildcard_sid() encode
  /// the "*" wildcard; `mode_mask` is a bitmask over the image's mode
  /// table (0 = applies in every mode); `meta` indexes the audit-string
  /// table. The matching, priority, specificity and first-wins tie-break
  /// semantics are exactly PolicySet::evaluate's.
  ///
  /// The layout is pinned (static_asserts in core/policy_blob.cpp) to
  /// exactly the 32-byte little-endian v2 wire record, so the zero-copy
  /// loader can view a blob's entry section in place on a little-endian
  /// host. The reserved bytes are the wire padding, always zero.
  struct Entry {
    mac::Sid subject = mac::kNullSid;                           // offset 0
    mac::Sid object = mac::kNullSid;                            // offset 4
    threat::Permission permission = threat::Permission::kNone;  // offset 8
    std::uint8_t specificity = 0;  // offset 9; 0 = both wildcards .. 2 = exact
    std::uint8_t reserved0 = 0;    // offset 10
    std::uint8_t reserved1 = 0;    // offset 11
    std::int32_t priority = 0;     // offset 12
    std::uint64_t mode_mask = 0;   // offset 16
    std::uint32_t meta = 0;        // offset 24
    std::uint32_t reserved2 = 0;   // offset 28
  };

  /// One sealed-index slot's span over the flat entry-index array.
  /// Layout-pinned like Entry: the pair is the 8-byte v2 wire record.
  struct SlotSpan {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  /// Accumulates entries, interning every name exactly once. Used by
  /// PolicyCompiler::compile_to_image and by from_policy_set; not a
  /// public extension point for ad-hoc rule soups — go through PolicySet
  /// for that. (Defined after the class: it holds the image it grows.)
  class Builder;

  /// Compiles an existing string-rule set against `sids` (fresh table
  /// when null). This is the shim path PolicySet uses for its lazy
  /// index; decisions are byte-identical to the string evaluate.
  [[nodiscard]] static CompiledPolicyImage from_policy_set(
      const PolicySet& set, std::shared_ptr<mac::SidTable> sids = nullptr);

  CompiledPolicyImage(CompiledPolicyImage&&) = default;
  CompiledPolicyImage& operator=(CompiledPolicyImage&&) = default;
  CompiledPolicyImage(const CompiledPolicyImage& other);
  CompiledPolicyImage& operator=(const CompiledPolicyImage& other);
  ~CompiledPolicyImage() = default;

  // -- evaluation (the hot path; no strings, no allocation) --------------

  /// Adjudicates one pre-resolved request. The returned Decision is
  /// byte-identical to PolicySet::evaluate on the equivalent string
  /// request (same rule id, same reason text).
  [[nodiscard]] Decision evaluate(const SidRequest& request) const;

  /// Answers `requests[i]` into `out[i]` for every i through the staged
  /// pipeline (DESIGN.md "Vectorised decision core"): requests are
  /// processed in stack-resident chunks, each chunk running a resolve
  /// wave (pack pair keys + mode bits, consult a call-local
  /// (pair, mode-bits)→best memo), a probe wave (unresolved keys walk
  /// the sealed index through probe::find_slot, origins
  /// prefetched ahead), and a copy wave (Decision materialisation).
  /// Decisions are byte-identical to per-element evaluate() — the memo
  /// is exact because best-entry selection never reads the access type.
  /// The copy-assignment into `out` reuses each Decision's existing
  /// string capacity, so a warm caller-owned buffer makes the whole
  /// batch allocation-free. Throws std::invalid_argument when the spans
  /// differ in length.
  void evaluate_batch(std::span<const SidRequest> requests,
                      std::span<Decision> out) const;

  /// The verdict-only twin of evaluate_batch: `allowed_out[i]` is 1 when
  /// `requests[i]` would be allowed, 0 when denied — always equal to
  /// `evaluate_batch`'s `out[i].allowed` (test-pinned). Runs the same
  /// staged pipeline but materialises a byte instead of copy-assigning a
  /// three-string Decision, which is what counting consumers (the fleet
  /// sweep's no-sink tick, allow-rate telemetry) actually read; on the
  /// acceptance workload the Decision copy wave is the single largest
  /// stage, so skipping it roughly halves ns/decision. Throws
  /// std::invalid_argument when the spans differ in length.
  void evaluate_batch_allowed(std::span<const SidRequest> requests,
                              std::span<std::uint8_t> allowed_out) const;

  // -- request resolution (the string edge) ------------------------------

  /// Translates a string request into SID space without growing the
  /// interner: unknown subjects/objects resolve to kNullSid (they can
  /// still match wildcard rules — exactly the string semantics) and an
  /// unknown mode resolves to kUnresolvedSid (matches only mode-free
  /// rules, never "all modes").
  [[nodiscard]] SidRequest resolve(const AccessRequest& request) const noexcept;

  /// SID of an operational mode name; kUnresolvedSid when the image's
  /// interner has never seen it, kNullSid for the empty (mode-less) id.
  [[nodiscard]] mac::Sid mode_sid(const threat::ModeId& mode) const noexcept;

  // -- observation -------------------------------------------------------

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] bool default_allow() const noexcept { return default_allow_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::span<const Entry> entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::string_view rule_id(std::uint32_t meta) const {
    return meta_id_view(meta);
  }
  [[nodiscard]] mac::Sid wildcard_sid() const noexcept { return wildcard_sid_; }

  /// True when this image is a zero-copy view over a blob buffer rather
  /// than owned storage (observability/tests; the query API is mode-
  /// agnostic).
  [[nodiscard]] bool borrowed() const noexcept { return buffer_ != nullptr; }

  /// The interner every name in this image resolved through. Shared so
  /// fleet callers can pre-resolve their own identities into the same
  /// SID space (growing the table never changes an issued SID).
  [[nodiscard]] const std::shared_ptr<mac::SidTable>& sid_table() const noexcept {
    return sids_;
  }
  [[nodiscard]] const mac::SidTable& sids() const noexcept { return *sids_; }

  /// Stable 64-bit fingerprint over name, version, flags and the packed
  /// entries (via their audit strings) — the integrity anchor the
  /// persistent-image serialisation will reuse.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Total sealed-index slots inspected to answer this request, summed
  /// over its four wildcard-combination probe keys (each key inspects at
  /// least one slot). Diagnostics only — feeds the bench probe-depth
  /// histogram; the evaluation paths never call it.
  [[nodiscard]] std::uint32_t probe_depth(const SidRequest& request) const noexcept;

 private:
  CompiledPolicyImage() = default;

  /// The persistent-blob subsystem (core/policy_blob.h) serialises the
  /// sealed representation verbatim and reconstructs it without
  /// recompiling, and the delta OTA channel (core/policy_delta.h) diffs
  /// two sealed images and replays the edit script into a fresh one;
  /// they are the only code besides Builder allowed behind the
  /// immutability boundary.
  friend class PolicyBlobWriter;
  friend class PolicyBlobReader;
  friend class PolicyDeltaWriter;
  friend class PolicyDeltaReader;
  friend struct PolicyDeltaDetail;  // shared writer/reader delta helpers

  /// Audit payload per rule, materialised once at build time (owned
  /// mode) or on first use (borrowed mode).
  struct Meta {
    std::string id;
    Decision allow;       // {true, id, rule.to_string()}
    Decision deny_read;   // {false, id, "permission .. does not include read"}
    Decision deny_write;
  };

  /// Lock-free lazily-populated Meta table for borrowed images: a
  /// two-level page structure of atomic pointers, so attaching a 50k-rule
  /// blob allocates ~n/512 page pointers and nothing else. Each Meta is
  /// CAS-installed exactly once and never freed before the table dies,
  /// which is what keeps evaluate()'s returned references stable under
  /// concurrent first-touch (TSan-exercised).
  class LazyMetas {
   public:
    LazyMetas() = default;
    ~LazyMetas() { destroy(); }
    LazyMetas(const LazyMetas&) = delete;
    LazyMetas& operator=(const LazyMetas&) = delete;
    LazyMetas(LazyMetas&& other) noexcept
        : pages_(std::move(other.pages_)), page_count_(other.page_count_) {
      other.page_count_ = 0;
    }
    LazyMetas& operator=(LazyMetas&& other) noexcept {
      if (this != &other) {
        destroy();
        pages_ = std::move(other.pages_);
        page_count_ = other.page_count_;
        other.page_count_ = 0;
      }
      return *this;
    }

    /// Sizes the top-level page-pointer array for `count` rules. O(count
    /// / 512) — the only allocation a zero-copy attach pays for metas.
    void init(std::uint32_t count);

    /// The Meta for rule `i`, building it via `build(i)` (returning a
    /// `const Meta*` the table takes ownership of) on first touch.
    template <class BuildFn>
    [[nodiscard]] const Meta& at(std::uint32_t i, BuildFn&& build) const {
      std::atomic<Page*>& page_slot = pages_[i >> kPageBits];
      Page* page = page_slot.load(std::memory_order_acquire);
      if (page == nullptr) {
        Page* fresh = new Page();  // value-init: all slots null
        Page* expected = nullptr;
        if (page_slot.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
          page = fresh;
        } else {
          delete fresh;
          page = expected;
        }
      }
      std::atomic<const Meta*>& slot = page->slot[i & (kPageSize - 1)];
      const Meta* meta = slot.load(std::memory_order_acquire);
      if (meta == nullptr) {
        const Meta* built = build(i);
        const Meta* expected = nullptr;
        if (slot.compare_exchange_strong(expected, built,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          meta = built;
        } else {
          delete built;
          meta = expected;
        }
      }
      return *meta;
    }

   private:
    static constexpr std::uint32_t kPageBits = 9;
    static constexpr std::uint32_t kPageSize = 1u << kPageBits;
    struct Page {
      std::atomic<const Meta*> slot[kPageSize];
    };

    void destroy() noexcept;

    std::unique_ptr<std::atomic<Page*>[]> pages_;
    std::uint32_t page_count_ = 0;
  };

  /// Fills one rule's audit payload (the allow Decision plus the
  /// REACHABLE permission-mismatch deny texts). Shared by Builder, the
  /// blob readers and the lazy borrowed-mode materialiser, so a loaded
  /// Meta can never drift from a compiled one.
  static void fill_meta(Meta& meta, std::string id,
                        threat::Permission permission,
                        std::string allow_reason);

  /// fill_meta at the back of `into` (the owned-mode paths).
  static void emplace_meta(std::vector<Meta>& into, std::string id,
                           threat::Permission permission,
                           std::string allow_reason);

  /// Total audit metas (== entry count in either mode).
  [[nodiscard]] std::uint32_t meta_count() const noexcept {
    return meta_arena_ != nullptr ? meta_count_
                                  : static_cast<std::uint32_t>(metas_.size());
  }

  /// Rule id / allow reason of meta `m` WITHOUT materialising: owned
  /// mode reads metas_, borrowed mode views the blob arena (bounds-
  /// guarded — a corrupted sealed arena yields an empty view, never an
  /// out-of-bounds read). The fingerprint and the delta differ run on
  /// these, so a borrowed base image costs no Meta construction.
  [[nodiscard]] std::string_view meta_id_view(std::uint32_t m) const noexcept;
  [[nodiscard]] std::string_view meta_reason_view(
      std::uint32_t m) const noexcept;

  /// The full Meta for rule `m` (materialises on first touch in borrowed
  /// mode; direct vector access in owned mode).
  [[nodiscard]] const Meta& meta_at(std::uint32_t m) const;

  [[nodiscard]] static std::uint64_t pair_key(mac::Sid subject,
                                              mac::Sid object) noexcept {
    return (static_cast<std::uint64_t>(subject) << 32) |
           static_cast<std::uint64_t>(object);
  }

  /// Request-side mode bits: all-ones for a mode-less request, the mode's
  /// bit when the image knows it, 0 otherwise (matches only mask-0 rules).
  [[nodiscard]] std::uint64_t request_mode_bits(mac::Sid mode) const noexcept;

  /// evaluate() with the request's mode bits already resolved (the batch
  /// path hoists the resolution across same-mode runs). Not noexcept:
  /// borrowed-mode lazy Meta materialisation may allocate.
  [[nodiscard]] const Decision& evaluate_impl(const SidRequest& request,
                                              std::uint64_t mode_bits) const;

  /// Sealed-index span for one probe key, walked with
  /// probe::find_slot. Bounds-guarded: an absent key or a corrupt span
  /// (offset/count outside the flat index) answers a count-0 span, so a
  /// sealed-trust blob fails CLOSED instead of walking out of bounds.
  [[nodiscard]] SlotSpan index_span(std::uint64_t key) const noexcept;

  /// Index of the winning entry for (subject, object, mode bits), or -1
  /// when no entry matches. `wildcard_span` is the pre-resolved
  /// (*,*) span — it is the same for every request, so the batch path
  /// resolves it once per call. Each span is sealed in decision order,
  /// so a span's scan stops at its first entry that matches subject,
  /// object and mode; the four span winners are compared under (priority
  /// desc, specificity desc, lowest index). Selection never reads the
  /// access type — which is what makes the batch memo exact.
  [[nodiscard]] std::int64_t best_entry_for(mac::Sid subject, mac::Sid object,
                                            std::uint64_t mode_bits,
                                            SlotSpan wildcard_span) const noexcept;

  /// Materialises the Decision for a best_entry_for result: access-type
  /// selection over the winner's Meta, or the default decision for -1 /
  /// a corrupt meta index. Not noexcept (borrowed-mode lazy Metas).
  [[nodiscard]] const Decision& decision_for(std::int64_t best,
                                             AccessType access) const;

  /// The allow bit decision_for's Decision would carry, without touching
  /// any Meta (no string access, no borrowed-mode materialisation) —
  /// the whole copy wave of the verdict-only batch path.
  [[nodiscard]] bool allowed_for(std::int64_t best,
                                 AccessType access) const noexcept;

  /// The shared staged chunk pipeline behind both batch entry points;
  /// `materialise(i, best, access)` writes element i's result.
  template <typename Materialise>
  void evaluate_batch_staged(std::span<const SidRequest> requests,
                             Materialise&& materialise) const;

  /// Freezes index_build_ into the flat open-addressing probe structure,
  /// each span sorted in decision order (priority desc, index asc).
  void seal_index();

  /// Points the evaluation views at the owned stores. Every owned-mode
  /// construction path (build, big-endian load, delta apply, deep copy) ends
  /// with this.
  void adopt_owned_storage() noexcept;

  std::string name_;
  std::uint64_t version_ = 0;
  bool default_allow_ = false;
  std::shared_ptr<mac::SidTable> sids_;
  mac::Sid wildcard_sid_ = mac::kNullSid;

  // -- owned stores (compile / big-endian load / delta apply; empty when the
  //    image borrows from a blob buffer) ---------------------------------
  std::vector<Entry> entries_store_;
  std::vector<Meta> metas_;
  std::vector<mac::Sid> mode_store_;
  std::vector<std::uint64_t> slot_key_store_;
  std::vector<SlotSpan> slot_span_store_;
  std::vector<std::uint32_t> flat_store_;

  // -- the views evaluation actually runs on (aliases of the stores, or
  //    of buffer_'s bytes) -----------------------------------------------
  std::span<const Entry> entries_;
  /// Distinct mode SIDs in first-appearance order; position = mask bit.
  std::span<const mac::Sid> mode_sids_;
  /// Sealed (subject SID, object SID) index: a power-of-two
  /// open-addressing slot array (mac::mix_av_key probing, key 0 = empty —
  /// interned SIDs are never null, so no rule key is 0) whose slots span
  /// a flattened entry-indices array. Every span is in decision order
  /// (priority desc, index asc — its entries share one specificity). Four
  /// probes (exact/wildcard combinations) cover every candidate for a
  /// request, each one costing a mixed hash and a scan that stops at the
  /// span's first match — no node chasing, no allocation.
  std::span<const std::uint64_t> slot_keys_;
  std::span<const SlotSpan> slot_spans_;
  std::span<const std::uint32_t> flat_index_;

  // -- borrowed meta table (v2 blob arena) -------------------------------
  /// 2*meta_count_+1 offsets into meta_arena_: meta m's id is bytes
  /// [off[2m], off[2m+1]), its allow reason [off[2m+1], off[2m+2]).
  const std::uint32_t* meta_offsets_ = nullptr;
  const char* meta_arena_ = nullptr;
  std::size_t meta_arena_len_ = 0;
  std::uint32_t meta_count_ = 0;
  mutable LazyMetas lazy_metas_;

  /// Pins the blob bytes every borrowed view aliases (null = owned mode).
  std::shared_ptr<const PolicyBuffer> buffer_;

  /// Build-time grouping; sealed into the flat tables by build().
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_build_;
  Decision default_allow_decision_;
  Decision default_deny_decision_;
};

class CompiledPolicyImage::Builder {
 public:
  /// When `sids` is null a fresh interner is created; pass a shared one
  /// so labels, policy databases and images agree on SID space.
  Builder(std::string name, std::uint64_t version,
          std::shared_ptr<mac::SidTable> sids = nullptr);

  void set_default_allow(bool allow) noexcept { image_.default_allow_ = allow; }

  /// Adds one rule. `subject`/`object` are names ("*" = wildcard);
  /// `modes` are mode names in rule order (empty = all modes);
  /// `allow_reason` is the exact audit text an allow Decision carries
  /// (PolicyRule::to_string form). Throws std::length_error past
  /// kMaxImageModes distinct modes.
  void add_rule(std::string id, std::string_view subject,
                std::string_view object, threat::Permission permission,
                std::span<const threat::ModeId> modes, int priority,
                std::string allow_reason);

  [[nodiscard]] CompiledPolicyImage build();

 private:
  [[nodiscard]] std::uint64_t mode_mask_for(
      std::span<const threat::ModeId> modes);

  CompiledPolicyImage image_;
};

}  // namespace psme::core
