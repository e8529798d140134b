// Tests for the wire-rate MAC (psme::can::WireMac): the compiled-verdict
// oracle against scalar image evaluation, the differential oracle pinning
// batched wire verdicts to per-frame admit() and to the string
// PolicySet::evaluate reference, J1939 classification, ISO-TP flow
// adjudication, drop telemetry, the BindingCompiler wire-table
// equivalence, and the TSan drive of per-bus WireMacs sharing one sealed
// image.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "can/wire_mac.h"
#include "car/base_policy.h"
#include "car/diagnostics.h"
#include "car/ids.h"
#include "car/policy_binding.h"
#include "car/table1.h"
#include "core/policy_image.h"
#include "monitor/wire_drops.h"
#include "sim/rng.h"

namespace psme::can {
namespace {

using namespace std::chrono_literals;

const threat::ModeId kNormal{"normal"};
const threat::ModeId kDiagnostic{"diagnostic"};

// -- fixture: a small image-backed world ------------------------------------
//
// Entities: subjects ecu/ivi/diag, objects engine/telemetry/doors.
// Rules: ecu may write engine, ivi may read telemetry, and diag may write
// doors only in the diagnostic mode. Tables stamp the normal mode unless
// a test asks for another.
struct WireWorld {
  core::PolicySet policy{"wire", 1};
  std::shared_ptr<const core::CompiledPolicyImage> image;

  WireWorld() {
    policy.add_rule({.id = "ecu-engine", .subject = "ecu", .object = "engine",
                     .permission = threat::Permission::kWrite});
    policy.add_rule({.id = "ivi-telemetry", .subject = "ivi",
                     .object = "telemetry",
                     .permission = threat::Permission::kRead});
    policy.add_rule({.id = "diag-doors", .subject = "diag", .object = "doors",
                     .permission = threat::Permission::kWrite,
                     .modes = {kDiagnostic}});
    // No rule names the normal mode; intern it so tables can stamp it.
    (void)policy.sid_table()->intern(kNormal.value);
    image = policy.image_ptr();
  }

  [[nodiscard]] mac::Sid sid(const std::string& entity) const {
    return image->sids().find(entity);
  }

  /// A table builder stamping `mode` on every request.
  [[nodiscard]] WireBindingTable::Builder builder(
      const threat::ModeId& mode = kNormal) const {
    WireBindingTable::Builder b;
    b.set_mode(image->mode_sid(mode));
    return b;
  }

  /// The table the differential tests share. Ids:
  ///   0x100 ecu->engine write (allowed), 0x101 ivi->telemetry read
  ///   (allowed), 0x110 {ivi,diag}->doors write (allowed iff diag may
  ///   write doors in `mode`), 0x120 ivi->engine write (always denied),
  ///   0x420-0x43F pass (NM), everything else unbound.
  [[nodiscard]] WireBindingTable table(
      const threat::ModeId& mode = kNormal) const {
    WireBindingTable::Builder b = builder(mode);
    const std::array<mac::Sid, 1> ecu{sid("ecu")};
    const std::array<mac::Sid, 1> ivi{sid("ivi")};
    const std::array<mac::Sid, 2> ivi_or_diag{sid("ivi"), sid("diag")};
    b.bind_standard(0x100, ecu, sid("engine"), core::AccessType::kWrite);
    b.bind_standard(0x101, ivi, sid("telemetry"), core::AccessType::kRead);
    b.bind_standard(0x110, ivi_or_diag, sid("doors"),
                    core::AccessType::kWrite);
    b.bind_standard(0x120, ivi, sid("engine"), core::AccessType::kWrite);
    b.pass_standard_range(0x420, 0x43F);
    return b.build();
  }

  /// Reference verdict for one frame of table(kNormal), via the string
  /// PolicySet::evaluate path against the current rules — deliberately
  /// NOT the image or the batch machinery.
  [[nodiscard]] bool reference(const Frame& frame) const {
    struct Rule {
      std::uint32_t id;
      std::vector<std::string> subjects;
      std::string object;
      core::AccessType access;
    };
    static const std::vector<Rule> rules = {
        {0x100, {"ecu"}, "engine", core::AccessType::kWrite},
        {0x101, {"ivi"}, "telemetry", core::AccessType::kRead},
        {0x110, {"ivi", "diag"}, "doors", core::AccessType::kWrite},
        {0x120, {"ivi"}, "engine", core::AccessType::kWrite},
    };
    const std::uint32_t raw = frame.id().raw();
    if (raw >= 0x420 && raw <= 0x43F) return true;  // pass range
    for (const Rule& rule : rules) {
      if (rule.id != raw) continue;
      return std::any_of(
          rule.subjects.begin(), rule.subjects.end(),
          [&](const std::string& subject) {
            return policy
                .evaluate(core::AccessRequest{subject, rule.object,
                                              rule.access, kNormal})
                .allowed;
          });
    }
    return false;  // unbound
  }
};

[[nodiscard]] std::vector<Frame> shuffled_stream(std::uint64_t seed,
                                                 std::size_t count) {
  static const std::uint32_t kIds[] = {0x100, 0x101, 0x110, 0x120,
                                       0x420, 0x43F, 0x300, 0x6FF};
  sim::Rng rng(seed);
  std::vector<Frame> frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = kIds[rng.uniform(0, std::size(kIds) - 1)];
    frames.push_back(make_frame(id, {static_cast<std::uint8_t>(i & 0xFF)}));
  }
  return frames;
}

TEST(WireMacDifferential, BatchedMatchesScalarReferenceAcrossReload) {
  // Every batched wire verdict must be byte-identical to per-frame
  // admit() and to the string PolicySet::evaluate reference over shuffled
  // streams at 3 pinned seeds — including across a mid-stream policy
  // change, after which both adjudicators run over the new image.
  for (const std::uint64_t seed : {0xAAAAu, 0x1234u, 0xC0FEu}) {
    WireWorld world;
    const std::vector<Frame> stream = shuffled_stream(seed, 4000);
    const std::size_t half = stream.size() / 2;

    std::vector<std::uint8_t> want(stream.size());
    std::vector<std::uint8_t> got_batched(stream.size());
    std::vector<std::uint8_t> got_scalar(stream.size());

    const auto run_segment = [&](std::size_t begin, std::size_t end) {
      WireMac batched(world.table(), *world.image);
      WireMac scalar(world.table(), *world.image);
      for (std::size_t i = begin; i < end; ++i) {
        want[i] = world.reference(stream[i]) ? 1 : 0;
        got_scalar[i] =
            scalar.admit(stream[i], sim::SimTime{1ms} * (i + 1)) ? 1 : 0;
      }
      batched.adjudicate_batch(
          std::span<const Frame>(stream.data() + begin, end - begin),
          sim::SimTime{1ms} * end,
          std::span<std::uint8_t>(got_batched.data() + begin, end - begin));
      EXPECT_GT(batched.stats().adjudicated, 0u);
      EXPECT_GT(batched.stats().passed, 0u);
      EXPECT_GT(batched.stats().unbound, 0u);
    };

    run_segment(0, half);
    // Mid-stream policy change: diag may now write doors in every mode,
    // so 0x110 flips. The second segment runs over the recompiled image.
    world.policy.add_rule({.id = "diag-doors-any", .subject = "diag",
                           .object = "doors",
                           .permission = threat::Permission::kWrite});
    world.image = world.policy.image_ptr();
    run_segment(half, stream.size());

    EXPECT_EQ(got_batched, want) << "seed " << seed;
    EXPECT_EQ(got_scalar, want) << "seed " << seed;
    // The change must actually have flipped something (0x110 in both
    // halves, denied before and allowed after).
    const auto doors_verdicts = [&](std::size_t begin, std::size_t end) {
      std::vector<std::uint8_t> verdicts;
      for (std::size_t i = begin; i < end; ++i) {
        if (stream[i].id().raw() == 0x110) verdicts.push_back(want[i]);
      }
      return verdicts;
    };
    const auto before = doors_verdicts(0, half);
    const auto after = doors_verdicts(half, stream.size());
    ASSERT_FALSE(before.empty());
    ASSERT_FALSE(after.empty());
    EXPECT_TRUE(std::all_of(before.begin(), before.end(),
                            [](std::uint8_t v) { return v == 0; }));
    EXPECT_TRUE(std::all_of(after.begin(), after.end(),
                            [](std::uint8_t v) { return v == 1; }));
  }
}

TEST(WireMac, MultiCandidateSubjectsAreExistentialOr) {
  WireWorld world;
  // ivi may never write doors; diag may only in the diagnostic mode. The
  // OR over the two candidates must follow the table's mode.
  WireMac normal(world.table(kNormal), *world.image);
  WireMac diagnostic(world.table(kDiagnostic), *world.image);
  const Frame doors_cmd = make_frame(0x110, {1});
  EXPECT_FALSE(normal.admit(doors_cmd, sim::SimTime{}));
  EXPECT_TRUE(diagnostic.admit(doors_cmd, sim::SimTime{}));
  // Both candidate lanes rode the batch of each admit.
  for (const WireMac* mac : {&normal, &diagnostic}) {
    EXPECT_EQ(mac->stats().sid_requests, 2u);
    EXPECT_EQ(mac->stats().adjudicated, 1u);
  }
}

TEST(WireMac, UnboundDefaultDenyAndOptOut) {
  WireWorld world;
  WireMac deny(world.table(), *world.image);
  EXPECT_FALSE(deny.admit(make_frame(0x300, {}), sim::SimTime{}));
  EXPECT_EQ(deny.stats().unbound, 1u);

  WireBindingTable::Builder open_builder = world.builder();
  open_builder.set_unbound_allowed(true);
  WireMac open(open_builder.build(), *world.image);
  EXPECT_TRUE(open.admit(make_frame(0x300, {}), sim::SimTime{}));
  EXPECT_EQ(open.stats().unbound, 0u);
}

// -- J1939 ------------------------------------------------------------------

TEST(J1939Id, DecomposePdu1AndPdu2) {
  // PDU1 (pf < 0xF0): PS is the destination, PGN masks it out.
  const J1939Id p1 = J1939Id::decompose(0x18DA10F1);
  EXPECT_EQ(p1.priority, 6);
  EXPECT_EQ(p1.pf, 0xDA);
  EXPECT_EQ(p1.dest, 0x10);
  EXPECT_EQ(p1.src, 0xF1);
  EXPECT_EQ(p1.pgn, 0xDA00u);
  EXPECT_FALSE(p1.broadcast);
  // PDU2 (pf >= 0xF0): broadcast, PS is part of the PGN.
  const J1939Id p2 = J1939Id::decompose(0x18FEF103);
  EXPECT_EQ(p2.pf, 0xFE);
  EXPECT_EQ(p2.src, 0x03);
  EXPECT_EQ(p2.pgn, 0xFEF1u);
  EXPECT_TRUE(p2.broadcast);
  EXPECT_EQ(p2.dest, 0xFF);
}

TEST(WireMac, J1939PgnBindingIgnoresDestination) {
  WireWorld world;
  WireBindingTable::Builder b = world.builder();
  const std::array<mac::Sid, 1> ecu{world.sid("ecu")};
  b.bind_pgn(0xDA00, ecu, world.sid("engine"), core::AccessType::kWrite);
  WireMac mac(b.build(), *world.image);
  // Same PGN, two destinations: both classify to the same binding.
  EXPECT_TRUE(mac.admit(Frame(CanId::extended(0x18DA10F1), {}),
                        sim::SimTime{}));
  EXPECT_TRUE(mac.admit(Frame(CanId::extended(0x18DA22F1), {}),
                        sim::SimTime{}));
  // Different PGN: unbound.
  EXPECT_FALSE(mac.admit(Frame(CanId::extended(0x18DB10F1), {}),
                         sim::SimTime{}));
}

TEST(WireMac, J1939PerSourceSubjects) {
  WireWorld world;
  WireBindingTable::Builder b = world.builder();
  // Empty subject list: the source address table supplies the subject.
  b.bind_pgn(0xFEF1, {}, world.sid("engine"), core::AccessType::kWrite);
  b.j1939_source(0x03, world.sid("ecu"));   // may write engine
  b.j1939_source(0x42, world.sid("ivi"));   // may not
  WireMac mac(b.build(), *world.image);
  EXPECT_TRUE(mac.admit(Frame(CanId::extended(0x18FEF103), {}),
                        sim::SimTime{}));
  EXPECT_FALSE(mac.admit(Frame(CanId::extended(0x18FEF142), {}),
                         sim::SimTime{}));
  EXPECT_EQ(mac.stats().denied, 1u);
  // Unmapped source: unbound, deny-by-default before any SID lookup.
  EXPECT_FALSE(mac.admit(Frame(CanId::extended(0x18FEF199), {}),
                         sim::SimTime{}));
  EXPECT_EQ(mac.stats().unbound, 1u);
}

// -- ISO-TP flows -----------------------------------------------------------

[[nodiscard]] WireBindingTable isotp_table(const WireWorld& world) {
  WireBindingTable::Builder b = world.builder();
  const std::array<mac::Sid, 1> ecu{world.sid("ecu")};
  const std::array<mac::Sid, 1> ivi{world.sid("ivi")};
  b.bind_standard(0x500, ecu, world.sid("engine"), core::AccessType::kWrite,
                  /*isotp=*/true);
  b.bind_standard(0x510, ivi, world.sid("engine"), core::AccessType::kWrite,
                  /*isotp=*/true);  // always denied
  return b.build();
}

[[nodiscard]] std::vector<std::uint8_t> payload_of(std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < len; ++i) p[i] = static_cast<std::uint8_t>(i);
  return p;
}

TEST(WireMacIsoTp, FlowAdjudicatedOnceCfsInherit) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  const auto frames =
      isotp_segment(CanId::standard(0x500), payload_of(100));  // FF + 14 CFs
  std::vector<std::uint8_t> allowed(frames.size());
  mac.adjudicate_batch(frames, sim::SimTime{}, allowed);
  EXPECT_TRUE(std::all_of(allowed.begin(), allowed.end(),
                          [](std::uint8_t v) { return v == 1; }));
  // Exactly ONE policy verdict bought the whole flow.
  EXPECT_EQ(mac.stats().adjudicated, 1u);
  EXPECT_EQ(mac.stats().flow_starts, 1u);
  EXPECT_EQ(mac.stats().flow_frames, frames.size() - 1);
  EXPECT_EQ(mac.isotp_stats().completed, 1u);
}

TEST(WireMacIsoTp, CrossBatchFlowInheritsVerdict) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  const auto frames = isotp_segment(CanId::standard(0x500), payload_of(100));
  // FF alone in the first batch; CFs admitted one frame at a time.
  EXPECT_TRUE(mac.admit(frames[0], sim::SimTime{}));
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_TRUE(mac.admit(frames[i], sim::SimTime{1ms} * i)) << i;
  }
  EXPECT_EQ(mac.stats().adjudicated, 1u);
  EXPECT_EQ(mac.stats().flow_frames, frames.size() - 1);
}

TEST(WireMacIsoTp, DeniedFlowDropsEveryFrame) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  const auto frames = isotp_segment(CanId::standard(0x510), payload_of(64));
  std::vector<std::uint8_t> allowed(frames.size());
  mac.adjudicate_batch(frames, sim::SimTime{}, allowed);
  EXPECT_TRUE(std::all_of(allowed.begin(), allowed.end(),
                          [](std::uint8_t v) { return v == 0; }));
  // The FF is a policy denial; the CFs die under the flow verdict.
  EXPECT_EQ(mac.stats().denied, 1u);
  EXPECT_EQ(mac.stats().flow_denied_frames, frames.size() - 1);
}

TEST(WireMacIsoTp, FlowControlPassesMalformedDrops) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  // FC pacing frame on a bound ISO-TP id: structural pass, no verdict.
  EXPECT_TRUE(mac.admit(make_frame(0x500, {0x30, 0, 0}), sim::SimTime{}));
  EXPECT_EQ(mac.stats().passed, 1u);
  EXPECT_EQ(mac.stats().adjudicated, 0u);
  // Transport garbage on the same id: dropped with its own reason.
  EXPECT_FALSE(mac.admit(make_frame(0x500, {0x42, 1}), sim::SimTime{}));
  EXPECT_EQ(mac.stats().isotp_errors, 1u);
}

TEST(WireMacIsoTp, FlowTimeoutForgetsVerdict) {
  WireWorld world;
  WireMac mac(isotp_table(world), *world.image);
  const auto frames = isotp_segment(CanId::standard(0x500), payload_of(64));
  EXPECT_TRUE(mac.admit(frames[0], sim::SimTime{}));
  // Past N_Cr the flow expires; the late CF is transport garbage.
  EXPECT_FALSE(mac.admit(frames[1], sim::SimTime{2000ms}));
  EXPECT_EQ(mac.stats().flow_timeouts, 1u);
  EXPECT_EQ(mac.stats().isotp_errors, 1u);
}

// -- batch vs per-frame fuzz ------------------------------------------------

/// Records every drop in order, as (id, extended, reason).
struct DropLog final : WireDropSink {
  struct Drop {
    std::uint32_t raw;
    bool extended;
    WireDropReason reason;
    friend bool operator==(const Drop&, const Drop&) = default;
  };
  std::vector<Drop> drops;
  void on_wire_drop(const Frame& frame, WireDropReason reason,
                    sim::SimTime /*at*/) override {
    drops.push_back({frame.id().raw(), frame.id().is_extended(), reason});
  }
};

/// Classic ids of WireWorld::table(), ISO-TP ids 0x500 (allowed) and
/// 0x510 (denied), J1939 PGNs bound per source and per list.
[[nodiscard]] WireBindingTable mixed_table(const WireWorld& world) {
  WireBindingTable::Builder b = world.builder();
  const std::array<mac::Sid, 1> ecu{world.sid("ecu")};
  const std::array<mac::Sid, 1> ivi{world.sid("ivi")};
  const std::array<mac::Sid, 2> ivi_or_diag{world.sid("ivi"),
                                            world.sid("diag")};
  b.bind_standard(0x100, ecu, world.sid("engine"), core::AccessType::kWrite);
  b.bind_standard(0x101, ivi, world.sid("telemetry"), core::AccessType::kRead);
  b.bind_standard(0x110, ivi_or_diag, world.sid("doors"),
                  core::AccessType::kWrite);
  b.bind_standard(0x120, ivi, world.sid("engine"), core::AccessType::kWrite);
  b.pass_standard_range(0x420, 0x43F);
  b.bind_standard(0x500, ecu, world.sid("engine"), core::AccessType::kWrite,
                  /*isotp=*/true);
  b.bind_standard(0x510, ivi, world.sid("engine"), core::AccessType::kWrite,
                  /*isotp=*/true);
  b.bind_pgn(0xFEF1, {}, world.sid("engine"), core::AccessType::kWrite);
  b.j1939_source(0x03, world.sid("ecu"));
  b.j1939_source(0x42, world.sid("ivi"));
  b.bind_pgn(0xDA00, ecu, world.sid("engine"), core::AccessType::kWrite);
  b.pass_pgn(0xFECA);
  return b.build();
}

/// Seeded traffic: classic and J1939 frames, ISO-TP flows on two ids
/// with their frames interleaved, plus transport faults — random PCI
/// bytes, malformed SFs and valid SFs in the middle of a flow, skipped
/// and repeated CFs.
[[nodiscard]] std::vector<Frame> mixed_stream(sim::Rng& rng,
                                              std::size_t count) {
  static const std::uint32_t kClassic[] = {0x100, 0x101, 0x110, 0x120,
                                           0x420, 0x43F, 0x300, 0x6FF};
  static const std::uint32_t kJ1939[] = {
      0x18FEF103, 0x18FEF142, 0x18FEF199, 0x18DA10F1,
      0x18DA22F1, 0x18DB10F1, 0x18FECA00, 0x0CF00400};
  static const std::uint32_t kFlowIds[] = {0x500, 0x510};
  std::vector<Frame> flow[2];
  std::size_t next[2] = {0, 0};
  std::vector<Frame> frames;
  const auto byte = [&] {
    return static_cast<std::uint8_t>(rng.uniform(0, 0xFF));
  };
  while (frames.size() < count) {
    const std::uint64_t pick = rng.uniform(0, 99);
    const std::size_t f = rng.uniform(0, 1);
    const std::uint32_t flow_id = kFlowIds[f];
    if (pick < 20) {
      frames.push_back(make_frame(kClassic[rng.uniform(0, 7)], {byte()}));
    } else if (pick < 35) {
      frames.push_back(Frame(CanId::extended(kJ1939[rng.uniform(0, 7)]),
                             std::vector<std::uint8_t>{byte(), byte()}));
    } else if (pick < 75) {
      if (next[f] >= flow[f].size()) {
        std::vector<std::uint8_t> payload(rng.uniform(1, 90));
        for (std::uint8_t& b : payload) b = byte();
        flow[f] = isotp_segment(CanId::standard(flow_id), payload);
        next[f] = 0;
      }
      frames.push_back(flow[f][next[f]++]);
    } else if (pick < 82) {
      std::vector<std::uint8_t> data(rng.uniform(0, 8));
      for (std::uint8_t& b : data) b = byte();
      frames.push_back(Frame(CanId::standard(flow_id), data));
    } else if (pick < 88) {
      // Malformed SF (length 0): an error that leaves an open flow open.
      frames.push_back(make_frame(flow_id, {0x00, byte()}));
    } else if (pick < 93) {
      // Valid SF: a whole message that tears down any open flow.
      frames.push_back(make_frame(flow_id, {0x02, byte(), byte()}));
    } else if (pick < 96) {
      frames.push_back(make_frame(flow_id, {0x30, 0x00, 0x00}));  // FC
    } else if (next[f] < flow[f].size()) {
      // Skip a CF (the next one arrives out of sequence) or repeat one.
      if (rng.chance(0.5)) {
        ++next[f];
      } else if (next[f] > 0) {
        frames.push_back(flow[f][next[f] - 1]);
      }
    }
  }
  return frames;
}

TEST(WireMacDifferential, BatchOf256MatchesPerFrameAdmitUnderFuzz) {
  for (const std::uint64_t seed : {0x5EEDu, 0xF00Du, 0x7777u}) {
    WireWorld world;
    WireMac batched(mixed_table(world), *world.image);
    WireMac scalar(mixed_table(world), *world.image);
    DropLog batched_drops;
    DropLog scalar_drops;
    batched.set_drop_sink(&batched_drops);
    scalar.set_drop_sink(&scalar_drops);

    sim::Rng rng(seed);
    const std::vector<Frame> stream = mixed_stream(rng, 256 * 48);
    constexpr std::size_t kBatch = 256;
    sim::SimTime at{};
    std::vector<std::uint8_t> got(kBatch);
    for (std::size_t base = 0; base < stream.size(); base += kBatch) {
      // Mostly within the CF timeout, sometimes past it.
      at += rng.chance(0.1) ? 1500ms
                            : std::chrono::milliseconds{rng.uniform(0, 300)};
      const std::span<const Frame> batch(stream.data() + base, kBatch);
      batched.adjudicate_batch(batch, at, got);
      for (std::size_t i = 0; i < kBatch; ++i) {
        ASSERT_EQ(got[i] != 0, scalar.admit(batch[i], at))
            << "seed " << seed << " frame " << base + i << " "
            << batch[i].to_string();
      }
    }

    const WireMacStats& b = batched.stats();
    const WireMacStats& s = scalar.stats();
    EXPECT_EQ(b.frames, s.frames);
    EXPECT_EQ(b.passed, s.passed);
    EXPECT_EQ(b.adjudicated, s.adjudicated);
    EXPECT_EQ(b.sid_requests, s.sid_requests);
    EXPECT_EQ(b.allowed, s.allowed);
    EXPECT_EQ(b.flow_starts, s.flow_starts);
    EXPECT_EQ(b.flow_frames, s.flow_frames);
    EXPECT_EQ(b.flow_timeouts, s.flow_timeouts);
    EXPECT_EQ(batched.drops_by_reason(), scalar.drops_by_reason());
    EXPECT_EQ(batched_drops.drops, scalar_drops.drops);

    // Conservation: every presented frame is admitted or dropped for
    // exactly one reason (flow timeouts drop no frame).
    std::uint64_t dropped = 0;
    for (std::size_t r = 0; r < batched.drops_by_reason().size(); ++r) {
      if (r != static_cast<std::size_t>(WireDropReason::kFlowTimeout)) {
        dropped += batched.drops_by_reason()[r];
      }
    }
    EXPECT_EQ(b.frames, stream.size());
    EXPECT_EQ(b.frames, b.allowed + dropped);

    // The stream reaches the rare paths: an SF on an open flow's id, a
    // flow timeout, and the fail-closed CF whose flow lost its verdict
    // (a flow-denied drop on 0x500, whose flows are always allowed).
    EXPECT_GT(batched.isotp_stats().restarts, 0u);
    EXPECT_GT(b.flow_timeouts, 0u);
    const auto fail_closed = std::count_if(
        batched_drops.drops.begin(), batched_drops.drops.end(),
        [](const DropLog::Drop& d) {
          return d.raw == 0x500 && !d.extended &&
                 d.reason == WireDropReason::kFlowDenied;
        });
    EXPECT_GT(fail_closed, 0) << "seed " << seed;
  }
}

// -- drop telemetry ---------------------------------------------------------

TEST(WireDropMonitor, CountsByReasonAndId) {
  WireWorld world;
  WireMac mac(world.table(), *world.image);
  monitor::WireDropMonitor drops;
  mac.set_drop_sink(&drops);

  EXPECT_FALSE(mac.admit(make_frame(0x120, {}), sim::SimTime{1ms}));  // denied
  EXPECT_FALSE(mac.admit(make_frame(0x120, {}), sim::SimTime{2ms}));
  EXPECT_FALSE(mac.admit(make_frame(0x300, {}), sim::SimTime{3ms}));  // unbound
  EXPECT_TRUE(mac.admit(make_frame(0x100, {}), sim::SimTime{4ms}));   // allowed

  EXPECT_EQ(drops.total(), 3u);
  EXPECT_EQ(drops.by_reason(WireDropReason::kPolicyDenied), 2u);
  EXPECT_EQ(drops.by_reason(WireDropReason::kUnbound), 1u);
  EXPECT_EQ(drops.by_id(CanId::standard(0x120)), 2u);
  EXPECT_EQ(drops.by_id(CanId::standard(0x100)), 0u);
  EXPECT_EQ(drops.distinct_ids(), 2u);
  EXPECT_EQ(drops.top_offender().id.raw(), 0x120u);
  EXPECT_EQ(drops.top_offender().drops, 2u);
  EXPECT_EQ(drops.last_drop_at(), sim::SimTime{3ms});

  drops.reset();
  EXPECT_EQ(drops.total(), 0u);
  EXPECT_EQ(drops.distinct_ids(), 0u);
}

// -- BindingCompiler wire table --------------------------------------------

TEST(WireTable, MatchesHpeReadListsOverCarPolicy) {
  // The compiled wire table must agree with the HPE read lists on every
  // comparable id: non-owned assets' status ids and owned assets'
  // command ids (the ∃-writer gate on the wire).
  const core::PolicySet policy = car::full_policy(car::connected_car_threat_model());
  const auto image = policy.image_ptr();
  car::BindingCompiler compiler(*image);
  for (const char* node : {"ecu", "eps", "doors", "safety", "connectivity",
                           "infotainment", "sensors", "engine"}) {
    for (const car::CarMode mode : car::kAllModes) {
      car::BindingCompiler fresh(*image);
      WireMac mac(fresh.build_wire_table(node, mode), *image);
      const hpe::ListPair lists = compiler.build_lists(node, mode);
      for (const car::AssetBinding& asset : car::asset_bindings()) {
        const bool owns = asset.owner_node == node;
        if (!owns) {
          for (const std::uint32_t id : asset.status_ids) {
            if (id == car::msg::kFailSafeTrigger) continue;  // structural
            EXPECT_EQ(mac.admit(make_frame(id, {}), sim::SimTime{}),
                      lists.read.contains(CanId::standard(id)))
                << node << " mode " << static_cast<int>(mode) << " id 0x"
                << std::hex << id;
          }
        } else {
          for (const std::uint32_t id : asset.command_ids) {
            EXPECT_EQ(mac.admit(make_frame(id, {}), sim::SimTime{}),
                      lists.read.contains(CanId::standard(id)))
                << node << " mode " << static_cast<int>(mode) << " id 0x"
                << std::hex << id;
          }
        }
      }
    }
  }
}

TEST(WireTable, StructuralIdsAlwaysPass) {
  const core::PolicySet policy = car::full_policy(car::connected_car_threat_model());
  const auto image = policy.image_ptr();
  car::BindingCompiler compiler(*image);
  WireMac mac(compiler.build_wire_table("eps", car::CarMode::kNormal), *image);
  EXPECT_TRUE(mac.admit(make_frame(car::msg::kModeChange, {0}), sim::SimTime{}));
  EXPECT_TRUE(
      mac.admit(make_frame(car::msg::kFailSafeTrigger, {1}), sim::SimTime{}));
  // The full 5-bit NM window [0x420, 0x43F] — the PR 9 regression pin.
  for (std::uint32_t id = 0x420; id <= 0x43F; ++id) {
    EXPECT_TRUE(mac.admit(make_frame(id, {0}), sim::SimTime{})) << std::hex << id;
  }
  EXPECT_FALSE(mac.admit(make_frame(0x41F, {0}), sim::SimTime{}));
  EXPECT_FALSE(mac.admit(make_frame(0x440, {0}), sim::SimTime{}));
}

TEST(WireTable, DiagFramesPassWhereTheHpeAdmitsThem) {
  // car::diag frames are single 4-byte frames whose first byte is the
  // target address. Every request/response pair, for every target, must
  // pass the wire MAC wherever the node's HPE read list admits it (the
  // HPE runs first at controller ingress) — none may drop as a malformed
  // transport frame.
  const core::PolicySet policy = car::full_policy(car::connected_car_threat_model());
  const auto image = policy.image_ptr();
  car::BindingCompiler compiler(*image);
  sim::Rng rng(7);
  std::vector<Frame> frames;
  for (const car::NodeBinding& target : car::node_bindings()) {
    const std::uint8_t address = car::diag_address_of(target.node);
    car::diag::DiagResponder responder(
        address, [](std::uint8_t) { return std::optional<std::uint8_t>(1); },
        [](std::uint8_t, std::uint8_t) { return true; }, [] {});
    const Frame request = car::diag::make_request(
        address, car::diag::kReadDataById, car::diag::kDidActive);
    const std::optional<Frame> response = responder.handle(request, rng);
    ASSERT_TRUE(response.has_value()) << target.node;
    frames.push_back(request);
    frames.push_back(*response);
  }
  for (const car::NodeBinding& listener : car::node_bindings()) {
    car::BindingCompiler fresh(*image);
    WireMac mac(fresh.build_wire_table(listener.node,
                                       car::CarMode::kRemoteDiagnostic),
                *image);
    const hpe::ListPair lists =
        compiler.build_lists(listener.node, car::CarMode::kRemoteDiagnostic);
    ASSERT_TRUE(lists.read.contains(CanId::standard(car::msg::kDiagRequest)));
    for (const Frame& frame : frames) {
      if (!lists.read.contains(frame.id())) continue;
      EXPECT_TRUE(mac.admit(frame, sim::SimTime{}))
          << listener.node << " id 0x" << std::hex << frame.id().raw()
          << " target " << static_cast<int>(frame.data()[0]);
    }
    EXPECT_EQ(mac.stats().isotp_errors, 0u) << listener.node;
  }
}

// -- compiled verdicts -------------------------------------------------------

/// The scalar reference for one binding: OR over `subjects` of
/// image.evaluate(...).allowed, with the table's mode stamped.
[[nodiscard]] bool scalar_verdict(const core::CompiledPolicyImage& image,
                                  const WireBindingTable& table,
                                  const WireBindingTable::Binding& binding,
                                  std::span<const mac::Sid> subjects) {
  return std::any_of(subjects.begin(), subjects.end(), [&](mac::Sid subject) {
    return image
        .evaluate(core::SidRequest{subject, binding.object, binding.access,
                                   table.mode_sid()})
        .allowed;
  });
}

TEST(WireMacCompiledVerdicts, EveryBindingMatchesScalarEvaluate) {
  // The verdicts a WireMac compiles at construction must equal a scalar
  // image.evaluate() per candidate subject, OR-ed, for every bound id of
  // every car node x mode table, and for every mapped source address of
  // a J1939 per-source binding.
  const core::PolicySet policy = car::full_policy(car::connected_car_threat_model());
  const auto image = policy.image_ptr();
  std::size_t allowed = 0;
  std::size_t denied = 0;
  const auto check = [&](WireMac& mac, const Frame& frame, bool want) {
    EXPECT_EQ(mac.admit(frame, sim::SimTime{}), want) << frame.to_string();
    ++(want ? allowed : denied);
  };

  for (const car::NodeBinding& node : car::node_bindings()) {
    for (const car::CarMode mode : car::kAllModes) {
      car::BindingCompiler compiler(*image);
      WireMac mac(compiler.build_wire_table(node.node, mode), *image);
      const WireBindingTable& table = mac.table();
      for (std::uint32_t id = 0; id <= CanId::kMaxStandard; ++id) {
        const std::int32_t slot = table.standard_slot(id);
        if (slot < 0) continue;
        const WireBindingTable::Binding& binding = table.binding(slot);
        ASSERT_FALSE(binding.isotp) << node.node << " id 0x" << std::hex << id;
        check(mac, make_frame(id, {0x01}),
              scalar_verdict(*image, table, binding, table.subjects_of(binding)));
      }
    }
  }
  EXPECT_GT(allowed, 0u);
  EXPECT_GT(denied, 0u);

  // bench_wire_mac's J1939 table: list bindings on a PDU2 and a PDU1
  // PGN, and a per-source binding over two mapped addresses.
  allowed = denied = 0;
  mac::SidTable& sids = *image->sid_table();
  car::BindingCompiler compiler(*image);
  WireBindingTable::Builder builder;
  builder.set_mode(
      compiler.build_wire_table("engine", car::CarMode::kNormal).mode_sid());
  const std::array<mac::Sid, 1> engine_ep{sids.intern(car::entry::kEngine)};
  builder.bind_pgn(0xFEF1, engine_ep, sids.intern(car::asset::kEngine),
                   core::AccessType::kRead);
  builder.bind_pgn(0xDA00, engine_ep, sids.intern(car::asset::kEngine),
                   core::AccessType::kWrite);
  builder.bind_pgn(0xFECA, {}, sids.intern(car::asset::kSensors),
                   core::AccessType::kRead);
  builder.j1939_source(0x10, sids.intern(car::entry::kSensors));
  builder.j1939_source(0x42, sids.intern(car::entry::kInfotainment));
  builder.j1939_source(0x77, sids.intern(car::entry::kDoorLocks));
  WireMac mac(builder.build(), *image);
  const WireBindingTable& table = mac.table();
  for (const std::uint32_t raw : {0x18FEF103u, 0x18DA10F1u}) {
    const WireBindingTable::Binding& binding =
        table.binding(table.pgn_slot(J1939Id::decompose(raw).pgn));
    check(mac, Frame(CanId::extended(raw), {}),
          scalar_verdict(*image, table, binding, table.subjects_of(binding)));
  }
  const WireBindingTable::Binding& per_source =
      table.binding(table.pgn_slot(0xFECA));
  for (unsigned address = 0; address < 256; ++address) {
    const mac::Sid subject =
        table.j1939_subject(static_cast<std::uint8_t>(address));
    const Frame frame(CanId::extended(0x18FECA00u | address), {});
    if (subject == mac::kNullSid) {
      EXPECT_FALSE(mac.admit(frame, sim::SimTime{})) << frame.to_string();
      continue;
    }
    const std::array<mac::Sid, 1> one{subject};
    check(mac, frame, scalar_verdict(*image, table, per_source, one));
  }
  EXPECT_EQ(mac.stats().unbound, 253u);
  EXPECT_GT(allowed, 0u);
  EXPECT_GT(denied, 0u);
}

// -- concurrency (run under TSan in the wire-mac CI leg) --------------------

TEST(WireMacTorture, PerBusMacsOverOneSealedImageMatchSingleThreadedRun) {
  // Four buses, each with its OWN WireMac on its own thread, all
  // adjudicating against ONE shared sealed image. Every thread's
  // verdicts, stats and drop counts must equal a single-threaded run of
  // the same stream.
  constexpr std::size_t kBuses = 4;
  constexpr std::size_t kBatch = 256;
  WireWorld world;
  struct Run {
    std::vector<std::uint8_t> verdicts;
    WireMacStats stats;
    std::array<std::uint64_t, static_cast<std::size_t>(WireDropReason::kCount)>
        drops{};
  };
  std::array<std::vector<Frame>, kBuses> streams;
  std::array<WireBindingTable, kBuses> tables;
  for (std::size_t bus = 0; bus < kBuses; ++bus) {
    sim::Rng rng(0xB05 + bus);
    streams[bus] = mixed_stream(rng, kBatch * 16);
    tables[bus] = mixed_table(world);
  }
  const auto run = [&world](const std::vector<Frame>& stream,
                            WireBindingTable table) {
    WireMac mac(std::move(table), *world.image);
    Run out;
    out.verdicts.resize(stream.size());
    sim::SimTime at{};
    for (std::size_t base = 0; base < stream.size(); base += kBatch) {
      at += 100ms;
      mac.adjudicate_batch(
          std::span<const Frame>(stream.data() + base, kBatch), at,
          std::span<std::uint8_t>(out.verdicts.data() + base, kBatch));
    }
    out.stats = mac.stats();
    out.drops = mac.drops_by_reason();
    return out;
  };

  std::array<Run, kBuses> want;
  for (std::size_t bus = 0; bus < kBuses; ++bus) {
    want[bus] = run(streams[bus], tables[bus]);
  }
  std::array<Run, kBuses> got;
  std::vector<std::thread> threads;
  threads.reserve(kBuses);
  for (std::size_t bus = 0; bus < kBuses; ++bus) {
    threads.emplace_back([&, bus] {
      got[bus] = run(streams[bus], std::move(tables[bus]));
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t bus = 0; bus < kBuses; ++bus) {
    EXPECT_EQ(got[bus].verdicts, want[bus].verdicts) << "bus " << bus;
    EXPECT_TRUE(got[bus].stats == want[bus].stats) << "bus " << bus;
    EXPECT_EQ(got[bus].drops, want[bus].drops) << "bus " << bus;
    // Each stream reaches allows and policy denials.
    EXPECT_GT(want[bus].stats.allowed, 0u) << "bus " << bus;
    EXPECT_GT(want[bus].stats.denied, 0u) << "bus " << bus;
  }
}

}  // namespace
}  // namespace psme::can
