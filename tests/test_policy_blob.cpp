// Tests for the persistent policy image (core/policy_blob.h): round-trip
// byte-identical decision parity against the freshly compiled image
// (modes included, scalar and shuffled-batch), SID-space compatibility
// rules, the car::FleetBoot bring-up/OTA path — and the trust boundary:
// truncated, bit-flipped, version-mismatched, structurally inconsistent
// and wrong-fingerprint blobs are rejected with PolicyBlobError, never
// undefined behaviour (the ASan/UBSan CI job runs this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_boot.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_buffer.h"
#include "core/policy_image.h"
#include "core/wire_format.h"
#include "sim/rng.h"

namespace psme {
namespace {

using core::AccessRequest;
using core::AccessType;
using core::BlobTrust;
using core::CompiledPolicyImage;
using core::Decision;
using core::PolicyBlobError;
using core::PolicyBlobReader;
using core::PolicyBlobWriter;
using core::PolicyBuffer;
using core::PolicySet;

void expect_same_decision(const Decision& got, const Decision& want,
                          const std::string& context) {
  EXPECT_EQ(got.allowed, want.allowed) << context;
  EXPECT_EQ(got.rule_id, want.rule_id) << context;
  EXPECT_EQ(got.reason, want.reason) << context;
}

/// The deployed connected-car policy (22 Table-I rules + base grants),
/// compiled to its image — the acceptance workload's policy.
const PolicySet& car_policy() {
  static const PolicySet policy =
      car::full_policy(car::connected_car_threat_model());
  return policy;
}

PolicySet fuzz_policy_set(sim::Rng& rng, std::size_t rules,
                          bool default_allow) {
  const std::vector<std::string> subjects = {"*", "a", "b", "c", "d"};
  const std::vector<std::string> objects = {"*", "x", "y", "z"};
  const std::vector<std::string> modes = {"m1", "m2", "m3"};
  PolicySet set("fuzz", 1);
  set.set_default_allow(default_allow);
  for (std::size_t i = 0; i < rules; ++i) {
    core::PolicyRule rule;
    rule.id = "r" + std::to_string(i);
    rule.subject = subjects[rng.uniform(0, subjects.size() - 1)];
    rule.object = objects[rng.uniform(0, objects.size() - 1)];
    rule.permission = static_cast<threat::Permission>(rng.uniform(0, 3));
    rule.priority = static_cast<int>(rng.uniform(0, 6)) - 3;
    for (const auto& mode : modes) {
      if (rng.chance(0.3)) rule.modes.push_back(threat::ModeId{mode});
    }
    set.add_rule(std::move(rule));
  }
  return set;
}

std::vector<AccessRequest> fuzz_requests(sim::Rng& rng, std::size_t count) {
  const std::vector<std::string> subjects = {"a", "b", "c", "d", "zzz"};
  const std::vector<std::string> objects = {"x", "y", "z", "zzz"};
  const std::vector<std::string> modes = {"", "m1", "m2", "m3", "zzz"};
  std::vector<AccessRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AccessRequest request;
    request.subject = subjects[rng.uniform(0, subjects.size() - 1)];
    request.object = objects[rng.uniform(0, objects.size() - 1)];
    request.access = rng.chance(0.5) ? AccessType::kRead : AccessType::kWrite;
    request.mode = threat::ModeId{modes[rng.uniform(0, modes.size() - 1)]};
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Every (check, mode) question of the standard per-vehicle workload,
/// including a mode no rule names and the mode-free form.
std::vector<AccessRequest> workload_requests() {
  const std::vector<std::string> modes = {"", "normal", "remote-diagnostic",
                                          "fail-safe", "never-seen-mode"};
  std::vector<AccessRequest> requests;
  for (const car::FleetCheck& check : car::default_fleet_checks()) {
    for (const std::string& mode : modes) {
      requests.push_back(AccessRequest{check.subject, check.object,
                                       check.access, threat::ModeId{mode}});
    }
  }
  return requests;
}

// ------------------------------------------------------- round-trip parity

TEST(PolicyBlob, RoundTripIsByteIdenticalOnTheCarPolicy) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::vector<std::byte> blob = PolicyBlobWriter::write(original);
  const CompiledPolicyImage loaded = PolicyBlobReader::load(blob);

  EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_EQ(loaded.version(), original.version());
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.default_allow(), original.default_allow());

  for (const AccessRequest& request : workload_requests()) {
    // Each image resolves through its own interner — the loaded one was
    // rebuilt from the wire — and the Decisions must match byte for byte.
    expect_same_decision(loaded.evaluate(loaded.resolve(request)),
                         original.evaluate(original.resolve(request)),
                         request.to_string());
  }
}

TEST(PolicyBlob, RoundTripShuffledBatchParityUnderFuzz) {
  sim::Rng rng(20260731);
  for (int round = 0; round < 4; ++round) {
    const PolicySet set = fuzz_policy_set(rng, 25, round % 2 == 1);
    const CompiledPolicyImage& original = set.image();
    const CompiledPolicyImage loaded =
        PolicyBlobReader::load(PolicyBlobWriter::write(original));

    std::vector<AccessRequest> requests = fuzz_requests(rng, 400);
    // Shuffle deterministically so batch order differs from build order.
    for (std::size_t i = requests.size(); i > 1; --i) {
      std::swap(requests[i - 1], requests[rng.uniform(0, i - 1)]);
    }
    std::vector<core::SidRequest> resolved;
    resolved.reserve(requests.size());
    for (const AccessRequest& request : requests) {
      resolved.push_back(loaded.resolve(request));
    }
    std::vector<Decision> batch(resolved.size());
    loaded.evaluate_batch(resolved, batch);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_same_decision(batch[i],
                           original.evaluate(original.resolve(requests[i])),
                           requests[i].to_string());
    }
  }
}

TEST(PolicyBlob, FileRoundTripMatches) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::string path = ::testing::TempDir() + "psme_policy.img";
  PolicyBlobWriter::write_file(original, path);
  const CompiledPolicyImage loaded = PolicyBlobReader::load_file(path);
  EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
  std::remove(path.c_str());
}

TEST(PolicyBlob, ProbeSurfacesTheHeader) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::vector<std::byte> blob = PolicyBlobWriter::write(original);
  const core::PolicyBlobInfo info = PolicyBlobReader::probe(blob);
  EXPECT_EQ(info.format_version, core::kPolicyBlobFormatVersion);
  EXPECT_EQ(info.fingerprint, original.fingerprint());
  EXPECT_EQ(info.image_version, original.version());
  EXPECT_EQ(info.entry_count, original.size());
  EXPECT_EQ(info.sid_count, original.sids().size());
  EXPECT_EQ(info.total_size, blob.size());
}

// ------------------------------------------------------- SID-space rules

TEST(PolicyBlob, LoadsIntoAPrefixCompatibleTable) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::vector<std::byte> blob = PolicyBlobWriter::write(original);
  // The original image's own table IS the blob's interning history —
  // re-loading against it must succeed and preserve every SID.
  const CompiledPolicyImage loaded =
      PolicyBlobReader::load(blob, original.sid_table());
  EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
  EXPECT_EQ(loaded.sid_table().get(), original.sid_table().get());
}

TEST(PolicyBlob, RejectsAConflictingSidTable) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::vector<std::byte> blob = PolicyBlobWriter::write(original);
  auto conflicting = std::make_shared<mac::SidTable>();
  conflicting->intern("an-identity-the-blob-does-not-start-with");
  EXPECT_THROW((void)PolicyBlobReader::load(blob, conflicting),
               PolicyBlobError);
}

// ------------------------------------------------------- trust boundary

std::vector<std::byte> car_blob() {
  return PolicyBlobWriter::write(car_policy().image());
}

TEST(PolicyBlobRejection, Truncation) {
  const std::vector<std::byte> blob = car_blob();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{63}, std::size_t{80},
        blob.size() / 2, blob.size() - 1}) {
    const std::vector<std::byte> cut(blob.begin(),
                                     blob.begin() + static_cast<long>(keep));
    EXPECT_THROW((void)PolicyBlobReader::load(cut), PolicyBlobError)
        << "kept " << keep << " bytes";
    EXPECT_THROW((void)PolicyBlobReader::probe(cut), PolicyBlobError)
        << "kept " << keep << " bytes";
  }
}

TEST(PolicyBlobRejection, FlippedMagic) {
  std::vector<std::byte> blob = car_blob();
  blob[0] ^= std::byte{0x01};
  EXPECT_THROW((void)PolicyBlobReader::load(blob), PolicyBlobError);
}

TEST(PolicyBlobRejection, UnsupportedFormatVersion) {
  // The reader speaks exactly version 2: version 1 (the copying layout)
  // and unknown versions are rejected on every entry point, before any
  // payload is read.
  for (const std::uint32_t version : {1u, 3u, 99u}) {
    std::vector<std::byte> blob = car_blob();
    core::wire::store_u32(blob.data() + core::wire::kOffFormatVersion, version);
    const std::string want =
        "unsupported format version " + std::to_string(version);
    const auto expect_rejection = [&](const auto& call, const char* what) {
      try {
        call();
        ADD_FAILURE() << what << " accepted version " << version;
      } catch (const PolicyBlobError& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << what << ": " << e.what();
      }
    };
    expect_rejection([&] { (void)PolicyBlobReader::probe(blob); }, "probe");
    expect_rejection([&] { (void)PolicyBlobReader::load(blob); }, "load(span)");
    for (const BlobTrust trust :
         {BlobTrust::kUntrusted, BlobTrust::kSealedStore}) {
      expect_rejection(
          [&] {
            (void)PolicyBlobReader::load(PolicyBuffer::copy_of(blob), nullptr,
                                         trust);
          },
          "load(buffer)");
    }
  }
}

TEST(PolicyBlobRejection, FingerprintMismatch) {
  std::vector<std::byte> blob = car_blob();
  blob[32] ^= std::byte{0x01};  // fingerprint field (u64 at 32)
  try {
    (void)PolicyBlobReader::load(blob);
    FAIL() << "tampered fingerprint accepted";
  } catch (const PolicyBlobError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(PolicyBlobRejection, PayloadCorruption) {
  std::vector<std::byte> blob = car_blob();
  blob[blob.size() - 5] ^= std::byte{0x40};
  try {
    (void)PolicyBlobReader::load(blob);
    FAIL() << "corrupted payload accepted";
  } catch (const PolicyBlobError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(PolicyBlobRejection, EverySingleByteCorruptionIsDetected) {
  // The strongest form of the trust-boundary claim: flip ANY byte of the
  // blob and the loader must reject — the payload is checksummed and
  // every header byte is individually validated (magic, version, tags,
  // sizes, flags, reserved-zero, and the two hashes). Running this under
  // ASan/UBSan (CI) also proves no corruption reaches undefined
  // behaviour before the rejection fires.
  const std::vector<std::byte> blob = car_blob();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::vector<std::byte> bad = blob;
    bad[i] ^= std::byte{0xFF};
    EXPECT_THROW((void)PolicyBlobReader::load(bad), PolicyBlobError)
        << "flip at byte " << i << " was accepted";
  }
}

TEST(PolicyBlobRejection, SpanOutOfDecisionOrder) {
  // best_entry_for stops each span scan at its first match, which is only
  // sound when every span is in decision order (priority desc, index
  // asc). Swap two flat indices of different priority inside one span
  // and re-seal the payload checksum, so the semantic index check is the
  // one that must fire on every untrusted entry point.
  sim::Rng rng(1313);
  std::vector<std::byte> blob = PolicyBlobWriter::write(
      CompiledPolicyImage::from_policy_set(fuzz_policy_set(rng, 60, false)));
  const std::vector<core::PolicyBlobSection> sections =
      core::policy_blob_layout(blob);
  const std::byte* entries = nullptr;
  const std::byte* spans = nullptr;
  std::byte* flat = nullptr;
  std::size_t slot_count = 0;
  for (const core::PolicyBlobSection& section : sections) {
    const std::string_view name = section.name;
    if (name == "entries") entries = blob.data() + section.offset;
    if (name == "flat entry indices") flat = blob.data() + section.offset;
    if (name == "index slot spans") {
      spans = blob.data() + section.offset;
      slot_count = section.size / 8;
    }
  }
  ASSERT_TRUE(entries != nullptr && spans != nullptr && flat != nullptr);
  const auto priority = [&](std::uint32_t e) {
    using Entry = CompiledPolicyImage::Entry;
    return static_cast<std::int32_t>(core::wire::load_u32(
        entries + sizeof(Entry) * e + offsetof(Entry, priority)));
  };

  bool swapped = false;
  for (std::size_t s = 0; s < slot_count && !swapped; ++s) {
    const std::uint32_t offset = core::wire::load_u32(spans + 8 * s);
    const std::uint32_t count = core::wire::load_u32(spans + 8 * s + 4);
    for (std::uint32_t c = 1; c < count && !swapped; ++c) {
      std::byte* first = flat + 4 * (offset + c - 1);
      std::byte* second = flat + 4 * (offset + c);
      const std::uint32_t a = core::wire::load_u32(first);
      const std::uint32_t b = core::wire::load_u32(second);
      if (priority(a) == priority(b)) continue;
      core::wire::store_u32(first, b);
      core::wire::store_u32(second, a);
      swapped = true;
    }
  }
  ASSERT_TRUE(swapped) << "no span mixes priorities";
  core::wire::store_u64(
      blob.data() + core::wire::kOffPayloadHash,
      core::wire::hash_payload(
          std::span<const std::byte>(blob).subspan(sections.front().size)));

  const auto expect_rejection = [&](const auto& call, const char* what) {
    try {
      call();
      ADD_FAILURE() << what << " accepted a span out of decision order";
    } catch (const PolicyBlobError& e) {
      EXPECT_NE(std::string(e.what()).find("decision order"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_rejection([&] { (void)PolicyBlobReader::load(blob); }, "load(span)");
  expect_rejection(
      [&] {
        (void)PolicyBlobReader::load(PolicyBuffer::copy_of(blob), nullptr,
                                     BlobTrust::kUntrusted);
      },
      "load(buffer)");
}

TEST(PolicyBlobRejection, TrailingBytes) {
  std::vector<std::byte> blob = car_blob();
  blob.push_back(std::byte{0});  // size field no longer matches
  EXPECT_THROW((void)PolicyBlobReader::load(blob), PolicyBlobError);
}

TEST(PolicyBlobRejection, MissingFile) {
  EXPECT_THROW((void)PolicyBlobReader::load_file("/nonexistent/policy.img"),
               PolicyBlobError);
}

// ------------------------------------------------------- FleetBoot path

TEST(FleetBoot, BootsFromBlobWithByteIdenticalSweeps) {
  const CompiledPolicyImage& compiled = car_policy().image();
  const std::vector<std::byte> blob = PolicyBlobWriter::write(compiled);

  car::FleetEvaluatorOptions options;
  options.fleet_size = 40;
  car::FleetEvaluator reference(compiled, car::default_fleet_checks(),
                                options);
  car::FleetBoot boot(blob, car::default_fleet_checks(), options);

  // Scatter modes identically on both fleets.
  sim::Rng rng(99);
  for (std::size_t v = 0; v < options.fleet_size; ++v) {
    const auto mode = static_cast<car::CarMode>(rng.uniform(0, 2));
    reference.set_mode(v, mode);
    boot.fleet().set_mode(v, mode);
  }

  std::vector<Decision> reference_stream;
  std::vector<Decision> boot_stream;
  const auto collect = [](std::vector<Decision>& into) {
    return [&into](std::span<const core::SidRequest>,
                   std::span<const Decision> decisions) {
      into.insert(into.end(), decisions.begin(), decisions.end());
    };
  };
  const car::FleetTickStats want = reference.tick(collect(reference_stream));
  const car::FleetTickStats got = boot.fleet().tick(collect(boot_stream));

  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.allowed, want.allowed);
  EXPECT_EQ(got.denied, want.denied);
  ASSERT_EQ(boot_stream.size(), reference_stream.size());
  for (std::size_t i = 0; i < boot_stream.size(); ++i) {
    expect_same_decision(boot_stream[i], reference_stream[i],
                         "decision " + std::to_string(i));
  }
}

TEST(FleetBoot, OtaUpdateSwapsPolicyAndRefusesRollback) {
  const auto model = car::connected_car_threat_model();
  const PolicySet v1 = car::full_policy(model, 1);
  PolicySet v2 = car::full_policy(model, 2);
  // v2 adds a top-priority global deny for one entry point — visibly
  // different decisions after the update.
  core::PolicyRule lockdown;
  lockdown.id = "lockdown";
  lockdown.subject = "ep.infotainment";
  lockdown.object = "*";
  lockdown.permission = threat::Permission::kNone;
  lockdown.priority = 1000;
  v2.add_rule(std::move(lockdown));

  const std::vector<std::byte> blob_v1 = PolicyBlobWriter::write(v1.image());
  const std::vector<std::byte> blob_v2 = PolicyBlobWriter::write(v2.image());

  car::FleetEvaluatorOptions options;
  options.fleet_size = 8;
  car::FleetBoot boot(blob_v1, car::default_fleet_checks(), options);
  boot.fleet().set_mode(3, car::CarMode::kFailSafe);
  const std::uint64_t denied_v1 = boot.fleet().tick().denied;
  EXPECT_EQ(boot.policy_version(), 1u);

  // Malformed staging blob: rejected, live policy untouched.
  std::vector<std::byte> corrupt = blob_v2;
  corrupt[corrupt.size() - 1] ^= std::byte{0xFF};
  EXPECT_THROW((void)boot.apply_update(corrupt), PolicyBlobError);
  EXPECT_EQ(boot.policy_version(), 1u);

  // The real update: applied, modes preserved, decisions now v2's.
  EXPECT_TRUE(boot.apply_update(blob_v2));
  EXPECT_EQ(boot.policy_version(), 2u);
  EXPECT_EQ(boot.fleet().mode(3), car::CarMode::kFailSafe);
  const std::uint64_t denied_v2 = boot.fleet().tick().denied;
  EXPECT_GT(denied_v2, denied_v1);

  // Replaying the old blob must not downgrade.
  EXPECT_FALSE(boot.apply_update(blob_v1));
  EXPECT_EQ(boot.policy_version(), 2u);
}

// ------------------------------------------------------- zero-copy views

/// Compiled and borrowed images answering one request — the acceptance
/// criterion is byte-identical Decisions across both.
TEST(PolicyBlobZeroCopy, CompiledAndBorrowedAnswerIdentically) {
  const CompiledPolicyImage& compiled = car_policy().image();
  const CompiledPolicyImage via_v2 = PolicyBlobReader::load(
      PolicyBuffer::take(PolicyBlobWriter::write(compiled)));
  ASSERT_TRUE(via_v2.borrowed());

  for (const AccessRequest& request : workload_requests()) {
    const Decision want = compiled.evaluate(compiled.resolve(request));
    expect_same_decision(via_v2.evaluate(via_v2.resolve(request)), want,
                         "v2 " + request.to_string());
  }
}

TEST(PolicyBlobZeroCopy, SealedAttachMatchesUntrustedLoad) {
  const CompiledPolicyImage& compiled = car_policy().image();
  auto buffer = PolicyBuffer::take(PolicyBlobWriter::write(compiled));
  const CompiledPolicyImage untrusted =
      PolicyBlobReader::load(buffer, nullptr, BlobTrust::kUntrusted);
  const CompiledPolicyImage sealed =
      PolicyBlobReader::load(buffer, nullptr, BlobTrust::kSealedStore);
  ASSERT_TRUE(sealed.borrowed());
  EXPECT_EQ(sealed.fingerprint(), compiled.fingerprint());
  for (const AccessRequest& request : workload_requests()) {
    expect_same_decision(sealed.evaluate(sealed.resolve(request)),
                         untrusted.evaluate(untrusted.resolve(request)),
                         request.to_string());
  }
}

TEST(PolicyBlobZeroCopy, ShuffledBatchParityOnBorrowedImagesUnderFuzz) {
  sim::Rng rng(20260808);
  for (int round = 0; round < 4; ++round) {
    const PolicySet set = fuzz_policy_set(rng, 25, round % 2 == 1);
    const CompiledPolicyImage& original = set.image();
    const CompiledPolicyImage loaded = PolicyBlobReader::load(
        PolicyBuffer::take(PolicyBlobWriter::write(original)));
    ASSERT_TRUE(loaded.borrowed());

    std::vector<AccessRequest> requests = fuzz_requests(rng, 400);
    for (std::size_t i = requests.size(); i > 1; --i) {
      std::swap(requests[i - 1], requests[rng.uniform(0, i - 1)]);
    }
    std::vector<core::SidRequest> resolved;
    resolved.reserve(requests.size());
    for (const AccessRequest& request : requests) {
      resolved.push_back(loaded.resolve(request));
    }
    std::vector<Decision> batch(resolved.size());
    loaded.evaluate_batch(resolved, batch);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_same_decision(batch[i],
                           original.evaluate(original.resolve(requests[i])),
                           requests[i].to_string());
    }
  }
}

TEST(PolicyBlobZeroCopy, CopyingABorrowedImageKeepsParity) {
  // Deep copy of a borrowed image: the copy shares the buffer (views are
  // rebound, not re-owned) and must answer identically after the source
  // image is destroyed.
  const CompiledPolicyImage& compiled = car_policy().image();
  auto borrowed = std::make_unique<CompiledPolicyImage>(PolicyBlobReader::load(
      PolicyBuffer::take(PolicyBlobWriter::write(compiled))));
  const CompiledPolicyImage copy(*borrowed);
  borrowed.reset();
  EXPECT_TRUE(copy.borrowed());
  EXPECT_EQ(copy.fingerprint(), compiled.fingerprint());
  for (const AccessRequest& request : workload_requests()) {
    expect_same_decision(copy.evaluate(copy.resolve(request)),
                         compiled.evaluate(compiled.resolve(request)),
                         request.to_string());
  }
}

TEST(PolicyBlobZeroCopy, InternGrowsAnAttachedTable) {
  // FleetEvaluator interns workload labels into a loaded image's table;
  // an attached (borrowed) interner must support that exactly like a
  // rebuilt one: existing names keep their SIDs, new names extend.
  const CompiledPolicyImage loaded = PolicyBlobReader::load(
      PolicyBuffer::take(PolicyBlobWriter::write(car_policy().image())));
  mac::SidTable& sids = *loaded.sid_table();
  const std::size_t carried = sids.size();

  // Existing name: intern is a pure lookup, nothing grows.
  const mac::Sid wildcard = sids.find("*");
  ASSERT_NE(wildcard, mac::kNullSid);
  EXPECT_EQ(sids.intern("*"), wildcard);
  EXPECT_EQ(sids.size(), carried);

  // New names: sequential SIDs past the carried range, and every carried
  // name still resolves (the thaw copies the probe table faithfully).
  const mac::Sid fresh = sids.intern("ep.test.attached-intern");
  EXPECT_EQ(fresh, carried + 1);
  EXPECT_EQ(sids.name_of(fresh), "ep.test.attached-intern");
  EXPECT_EQ(sids.find("ep.test.attached-intern"), fresh);
  for (mac::Sid sid = 1; sid <= carried; ++sid) {
    EXPECT_EQ(sids.find(sids.name_of(sid)), sid) << "carried SID " << sid;
  }
}

TEST(PolicyBlobZeroCopy, LayoutSectionsAreAlignedAndPack) {
  const std::vector<std::byte> blob =
      PolicyBlobWriter::write(car_policy().image());
  const std::vector<core::PolicyBlobSection> sections =
      core::policy_blob_layout(blob);
  ASSERT_FALSE(sections.empty());
  EXPECT_STREQ(sections.front().name, "header");
  std::size_t previous_end = 0;
  for (const core::PolicyBlobSection& section : sections) {
    EXPECT_EQ(section.offset % 8, 0u) << section.name;
    EXPECT_GE(section.offset, previous_end) << section.name;
    // Any gap is alignment padding only (< 8 bytes).
    EXPECT_LT(section.offset - previous_end, 8u) << section.name;
    previous_end = section.offset + section.size;
  }
  EXPECT_EQ((previous_end + 7) & ~std::size_t{7}, blob.size());
}

TEST(PolicyBlobZeroCopy, ConcurrentEvaluationOnOneBorrowedImage) {
  // Lazy Meta materialisation is the one internal mutation of a borrowed
  // image; concurrent first-touch from several threads must be safe (the
  // TSan CI job runs this) and every thread must see identical decisions.
  const CompiledPolicyImage& compiled = car_policy().image();
  const CompiledPolicyImage loaded = PolicyBlobReader::load(
      PolicyBuffer::take(PolicyBlobWriter::write(compiled)));
  const std::vector<AccessRequest> requests = workload_requests();
  std::vector<Decision> want;
  want.reserve(requests.size());
  for (const AccessRequest& request : requests) {
    want.push_back(compiled.evaluate(compiled.resolve(request)));
  }

  std::vector<std::vector<Decision>> got(4);
  std::vector<std::thread> threads;
  threads.reserve(got.size());
  for (std::vector<Decision>& into : got) {
    threads.emplace_back([&loaded, &requests, &into] {
      into.reserve(requests.size());
      for (const AccessRequest& request : requests) {
        into.push_back(loaded.evaluate(loaded.resolve(request)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_decision(got[t][i], want[i],
                           "thread " + std::to_string(t) + " decision " +
                               std::to_string(i));
    }
  }
}

TEST(PolicyBlobZeroCopy, CorruptedSealedBlobFailsClosedWithoutUB) {
  // kSealedStore skips the content checks — that is its contract — but a
  // blob corrupted AFTER staging must still fail SAFE: structural header
  // damage is rejected outright, and payload damage may only change
  // answers or deny, never crash or read out of bounds (ASan/UBSan CI
  // runs this test). Walk a byte of every section.
  const std::vector<std::byte> good =
      PolicyBlobWriter::write(car_policy().image());
  const std::vector<core::PolicyBlobSection> sections =
      core::policy_blob_layout(good);
  const std::vector<AccessRequest> requests = workload_requests();

  for (const core::PolicyBlobSection& section : sections) {
    if (section.size == 0) continue;
    for (const std::size_t at :
         {section.offset, section.offset + section.size / 2,
          section.offset + section.size - 1}) {
      std::vector<std::byte> bad = good;
      bad[at] ^= std::byte{0xA5};
      try {
        const CompiledPolicyImage image = PolicyBlobReader::load(
            PolicyBuffer::take(std::move(bad)), nullptr,
            BlobTrust::kSealedStore);
        for (const AccessRequest& request : requests) {
          (void)image.evaluate(image.resolve(request));  // must not crash
        }
      } catch (const PolicyBlobError&) {
        // Equally acceptable: the structural gates caught it.
      }
    }
  }
}

// ------------------------------------------------------- file / mmap path

TEST(PolicyBlobZeroCopy, FileLoadIsMmapBackedAndBorrowed) {
  const CompiledPolicyImage& original = car_policy().image();
  const std::string path = ::testing::TempDir() + "psme_policy_v2.img";
  PolicyBlobWriter::write_file(original, path);

  std::string error;
  const std::shared_ptr<const PolicyBuffer> mapped =
      PolicyBuffer::map_file(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped->file_mapped());
#endif

  const CompiledPolicyImage loaded = PolicyBlobReader::load_file(path);
  EXPECT_TRUE(loaded.borrowed());
  EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
  for (const AccessRequest& request : workload_requests()) {
    expect_same_decision(loaded.evaluate(loaded.resolve(request)),
                         original.evaluate(original.resolve(request)),
                         request.to_string());
  }
  std::remove(path.c_str());
}

TEST(FleetBoot, BootsFromFileWithByteIdenticalSweeps) {
  const CompiledPolicyImage& compiled = car_policy().image();
  const std::string path = ::testing::TempDir() + "psme_boot_v2.img";
  PolicyBlobWriter::write_file(compiled, path);

  car::FleetEvaluatorOptions options;
  options.fleet_size = 16;
  car::FleetEvaluator reference(compiled, car::default_fleet_checks(),
                                options);
  // Boot once per trust level — a freshly staged file (untrusted) and a
  // locally sealed one (the O(1) attach) must sweep identically.
  car::FleetBoot staged(path, car::default_fleet_checks(), options,
                        BlobTrust::kUntrusted);
  car::FleetBoot sealed(path, car::default_fleet_checks(), options,
                        BlobTrust::kSealedStore);

  std::vector<Decision> want_stream;
  std::vector<Decision> staged_stream;
  std::vector<Decision> sealed_stream;
  const auto collect = [](std::vector<Decision>& into) {
    return [&into](std::span<const core::SidRequest>,
                   std::span<const Decision> decisions) {
      into.insert(into.end(), decisions.begin(), decisions.end());
    };
  };
  const car::FleetTickStats want = reference.tick(collect(want_stream));
  const car::FleetTickStats staged_stats =
      staged.fleet().tick(collect(staged_stream));
  const car::FleetTickStats sealed_stats =
      sealed.fleet().tick(collect(sealed_stream));

  EXPECT_EQ(staged_stats.decisions, want.decisions);
  EXPECT_EQ(sealed_stats.decisions, want.decisions);
  ASSERT_EQ(staged_stream.size(), want_stream.size());
  ASSERT_EQ(sealed_stream.size(), want_stream.size());
  for (std::size_t i = 0; i < want_stream.size(); ++i) {
    expect_same_decision(staged_stream[i], want_stream[i],
                         "staged decision " + std::to_string(i));
    expect_same_decision(sealed_stream[i], want_stream[i],
                         "sealed decision " + std::to_string(i));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psme
