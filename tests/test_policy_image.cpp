// Tests for the SID-native policy pipeline: CompiledPolicyImage parity
// with the legacy string evaluation (byte-identical Decisions against a
// linear-scan oracle), the compiler's direct-to-image path, batched
// evaluation (shuffled batch == scalar per element, including deny/audit
// paths and the post-reload AVC seqno flush), and the FleetEvaluator
// against the legacy string pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_evaluator.h"
#include "car/policy_binding.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_buffer.h"
#include "core/policy_compiler.h"
#include "core/policy_delta.h"
#include "core/policy_image.h"
#include "core/policy_synth.h"
#include "core/wire_format.h"
#include "mac/mac_engine.h"
#include "mac/te_policy.h"
#include "sim/rng.h"

namespace psme {
namespace {

using core::AccessRequest;
using core::AccessType;
using core::CompiledPolicyImage;
using core::Decision;
using core::PolicySet;
using core::SidRequest;

// The legacy string-pipeline semantics, reimplemented as a full linear
// scan with the original tie-break (priority desc, specificity desc,
// first-added wins) and the original Decision text. Every SID-space path
// must be byte-identical to this.
Decision oracle(const PolicySet& set, const AccessRequest& request) {
  const core::PolicyRule* best = nullptr;
  for (const auto& rule : set.rules()) {
    if (!rule.matches(request)) continue;
    if (best == nullptr || rule.priority > best->priority ||
        (rule.priority == best->priority &&
         rule.specificity() > best->specificity())) {
      best = &rule;
    }
  }
  if (best == nullptr) {
    return set.default_allow()
               ? Decision::allow("", "no matching rule; default allow")
               : Decision::deny("", "no matching rule; default deny");
  }
  if (core::permits(best->permission, request.access)) {
    return Decision::allow(best->id, best->to_string());
  }
  return Decision::deny(
      best->id,
      "permission " + std::string(threat::to_string(best->permission)) +
          " does not include " + std::string(core::to_string(request.access)));
}

void expect_same_decision(const Decision& got, const Decision& want,
                          const std::string& context) {
  EXPECT_EQ(got.allowed, want.allowed) << context;
  EXPECT_EQ(got.rule_id, want.rule_id) << context;
  EXPECT_EQ(got.reason, want.reason) << context;
}

PolicySet fuzz_policy_set(sim::Rng& rng, std::size_t rules) {
  const std::vector<std::string> subjects = {"*", "a", "b", "c", "d"};
  const std::vector<std::string> objects = {"*", "x", "y", "z"};
  const std::vector<std::string> modes = {"m1", "m2", "m3"};
  PolicySet set("fuzz", 1);
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
  // Includes identities and modes no rule ever names (wildcard-only and
  // deny-default paths) — "zzz" never appears in any rule.
  const std::vector<std::string> subjects = {"a", "b", "c", "d", "zzz"};
  const std::vector<std::string> objects = {"x", "y", "z", "zzz"};
  const std::vector<std::string> modes = {"", "m1", "m2", "m3", "zzz"};
  std::vector<AccessRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AccessRequest request;
    request.subject = subjects[rng.uniform(0, subjects.size() - 1)];
    request.object = objects[rng.uniform(0, objects.size() - 1)];
    request.access =
        rng.chance(0.5) ? AccessType::kRead : AccessType::kWrite;
    request.mode = threat::ModeId{modes[rng.uniform(0, modes.size() - 1)]};
    requests.push_back(std::move(request));
  }
  return requests;
}

// ---------------------------------------- image vs string-oracle parity

TEST(PolicyImage, FromPolicySetByteIdenticalToOracleUnderFuzz) {
  sim::Rng rng(4242);
  for (int round = 0; round < 5; ++round) {
    const PolicySet set = fuzz_policy_set(rng, 30);
    const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);
    for (const AccessRequest& request : fuzz_requests(rng, 300)) {
      const Decision via_image = image.evaluate(image.resolve(request));
      const Decision via_set = set.evaluate(request);
      const Decision want = oracle(set, request);
      expect_same_decision(via_image, want, request.to_string());
      expect_same_decision(via_set, want, request.to_string());
    }
  }
}

TEST(PolicyImage, SidRequestOverloadMatchesStringShim) {
  const PolicySet set = car::full_policy(car::connected_car_threat_model());
  AccessRequest request{"ep.connectivity", "ev-ecu", AccessType::kWrite,
                        threat::ModeId{"remote-diagnostic"}};
  const SidRequest resolved = set.resolve(request);
  expect_same_decision(set.evaluate(resolved), set.evaluate(request),
                       request.to_string());
  EXPECT_TRUE(set.evaluate(resolved).allowed);  // B11 grants RW in diag mode
}

TEST(PolicyImage, DefaultAllowAndUnknownModeSemantics) {
  PolicySet set("edge", 1);
  set.set_default_allow(true);
  core::PolicyRule rule;
  rule.id = "only-m1";
  rule.subject = "a";
  rule.object = "x";
  rule.permission = threat::Permission::kNone;  // explicit deny
  rule.modes = {threat::ModeId{"m1"}};
  set.add_rule(rule);

  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);
  for (const char* mode : {"", "m1", "m2"}) {
    AccessRequest request{"a", "x", AccessType::kRead,
                          threat::ModeId{std::string(mode)}};
    expect_same_decision(image.evaluate(image.resolve(request)),
                         oracle(set, request), request.to_string());
  }
  // The mode-conditional deny applies to mode-less and m1 requests; the
  // unknown mode m2 falls through to default allow.
  EXPECT_FALSE(
      image
          .evaluate(image.resolve(
              {"a", "x", AccessType::kRead, threat::ModeId{"m1"}}))
          .allowed);
  EXPECT_TRUE(
      image
          .evaluate(image.resolve(
              {"a", "x", AccessType::kRead, threat::ModeId{"m2"}}))
          .allowed);
}

// ------------------------------------------- compiler direct-image path

TEST(CompileToImage, ByteIdenticalToStringPipelineOnTable1) {
  const auto model = car::connected_car_threat_model();
  const PolicySet compiled = core::PolicyCompiler().compile(model);
  const CompiledPolicyImage image =
      core::PolicyCompiler().compile_to_image(model);
  EXPECT_EQ(image.size(), compiled.size());
  EXPECT_EQ(image.name(), compiled.name());
  EXPECT_EQ(image.version(), compiled.version());

  std::vector<std::string> subjects = {"zzz"};
  std::vector<std::string> objects;
  for (const auto& ep : model.entry_points()) subjects.push_back(ep.id.value);
  for (const auto& asset : model.assets()) objects.push_back(asset.id.value);
  std::vector<threat::ModeId> modes = {threat::ModeId{}};
  for (const auto& mode : model.modes()) modes.push_back(mode.id);

  for (const auto& subject : subjects) {
    for (const auto& object : objects) {
      for (const auto& mode : modes) {
        for (const auto access : {AccessType::kRead, AccessType::kWrite}) {
          const AccessRequest request{subject, object, access, mode};
          expect_same_decision(image.evaluate(image.resolve(request)),
                               oracle(compiled, request),
                               request.to_string());
        }
      }
    }
  }
}

TEST(CompileToImage, SharedInternerAndDeterministicFingerprint) {
  const auto model = car::connected_car_threat_model();
  auto sids = std::make_shared<mac::SidTable>();
  const CompiledPolicyImage a =
      core::PolicyCompiler().compile_to_image(model, sids);
  const CompiledPolicyImage b = core::PolicyCompiler().compile_to_image(model);
  EXPECT_EQ(a.sid_table().get(), sids.get());
  EXPECT_NE(a.sid_table().get(), b.sid_table().get());
  // Same model, same options => same packed image, bit for bit.
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(CompileToImage, CompileThreatToImageMatchesCompileThreat) {
  const auto model = car::connected_car_threat_model();
  const threat::ThreatId id{"T01"};
  const PolicySet compiled = core::PolicyCompiler().compile_threat(model, id);
  const CompiledPolicyImage image =
      core::PolicyCompiler().compile_threat_to_image(model, id);
  EXPECT_EQ(image.size(), compiled.size());
  for (const auto& request :
       {AccessRequest{"ep.door-locks", "ev-ecu", AccessType::kRead, {}},
        AccessRequest{"ep.door-locks", "ev-ecu", AccessType::kWrite, {}},
        AccessRequest{"zzz", "ev-ecu", AccessType::kWrite, {}}}) {
    expect_same_decision(image.evaluate(image.resolve(request)),
                         oracle(compiled, request), request.to_string());
  }
  EXPECT_THROW((void)core::PolicyCompiler().compile_threat_to_image(
                   model, threat::ThreatId{"nope"}),
               std::invalid_argument);
}

// ----------------------------------------- batched == scalar, shuffled

TEST(PolicyImageBatch, ShuffledBatchByteIdenticalToScalar) {
  sim::Rng rng(777);
  const PolicySet set = fuzz_policy_set(rng, 40);
  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);

  std::vector<SidRequest> requests;
  for (const AccessRequest& request : fuzz_requests(rng, 500)) {
    requests.push_back(image.resolve(request));
  }
  // Deterministic Fisher-Yates shuffle (no std::random_device; DESIGN §3).
  for (std::size_t i = requests.size() - 1; i > 0; --i) {
    std::swap(requests[i], requests[rng.uniform(0, i)]);
  }

  std::vector<Decision> out(requests.size());
  image.evaluate_batch(requests, out);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_decision(out[i], image.evaluate(requests[i]),
                         "batch element " + std::to_string(i));
  }

  // Reusing the warm buffer must give the same answers (capacity reuse
  // must never leak previous contents).
  std::reverse(requests.begin(), requests.end());
  image.evaluate_batch(requests, out);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_decision(out[i], image.evaluate(requests[i]),
                         "reversed batch element " + std::to_string(i));
  }

  std::vector<Decision> wrong_size(requests.size() - 1);
  EXPECT_THROW(image.evaluate_batch(requests, wrong_size),
               std::invalid_argument);
}

// ------------------------- batched probe paths: parity with scalar paths

TEST(ProbeBackends, ShuffledBatchByteIdenticalAcrossAllBackends) {
  sim::Rng rng(4242);
  const PolicySet set = fuzz_policy_set(rng, 40);
  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);

  // Keep the string and SID forms co-shuffled so the batch output can be
  // checked against the linear-scan oracle directly.
  std::vector<AccessRequest> string_requests = fuzz_requests(rng, 500);
  for (std::size_t i = string_requests.size() - 1; i > 0; --i) {
    std::swap(string_requests[i], string_requests[rng.uniform(0, i)]);
  }
  std::vector<SidRequest> requests;
  requests.reserve(string_requests.size());
  for (const AccessRequest& request : string_requests) {
    requests.push_back(image.resolve(request));
  }

  std::vector<Decision> out(requests.size());
  image.evaluate_batch(requests, out);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Byte-identical to the string oracle AND to the scalar path.
    expect_same_decision(out[i], oracle(set, string_requests[i]),
                         "batch vs oracle, element " + std::to_string(i));
    expect_same_decision(out[i], image.evaluate(requests[i]),
                         "batch vs scalar evaluate, element " +
                             std::to_string(i));
  }
}

TEST(ProbeBackends, PolicyDbLookupBatchMatchesScalarLookupAcrossBackends) {
  // A policy database large enough that the flat table grows a few times
  // and carries real probe chains.
  mac::PolicyDbBuilder builder;
  builder.add_class("asset", {"read", "write"});
  std::vector<std::string> types;
  for (int t = 0; t < 24; ++t) {
    types.push_back("t" + std::to_string(t));
    builder.add_type(types.back());
  }
  sim::Rng rng(9090);
  for (int r = 0; r < 200; ++r) {
    mac::TeRule rule;
    rule.source = types[rng.uniform(0, types.size() - 1)];
    rule.target = types[rng.uniform(0, types.size() - 1)];
    rule.object_class = "asset";
    rule.permissions = {rng.chance(0.5) ? "read" : "write"};
    builder.allow(std::move(rule));
  }
  const mac::PolicyDb db = builder.build();

  // Key mix: real triples, unknown SIDs, null components (the guard
  // path), duplicates — everything the AVC miss waves can feed through.
  const mac::Sid cls = db.find_class(std::string_view("asset"))->sid;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    const mac::Sid source = static_cast<mac::Sid>(rng.uniform(0, 40));
    const mac::Sid target = static_cast<mac::Sid>(rng.uniform(0, 40));
    const mac::Sid key_cls = rng.chance(0.9) ? cls : mac::kNullSid;
    keys.push_back(mac::pack_av_key(source, target, key_cls));
    if (rng.chance(0.2)) keys.push_back(keys.back());  // duplicate
  }

  std::vector<mac::AccessVector> out(keys.size());
  db.lookup_batch(keys, out);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const mac::AvKeyParts parts = mac::unpack_av_key(keys[i]);
    EXPECT_EQ(out[i], db.lookup(parts.source, parts.target, parts.cls))
        << "key " << i;
  }
}

TEST(ProbeBackends, VerdictOnlyBatchMatchesDecisionBatchAcrossBackends) {
  sim::Rng rng(7171);
  const PolicySet set = fuzz_policy_set(rng, 40);
  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);
  std::vector<SidRequest> requests;
  for (const AccessRequest& request : fuzz_requests(rng, 700)) {
    requests.push_back(image.resolve(request));
  }
  std::vector<Decision> decisions(requests.size());
  std::vector<std::uint8_t> flags(requests.size());
  image.evaluate_batch(requests, decisions);
  image.evaluate_batch_allowed(requests, flags);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(flags[i] != 0, decisions[i].allowed) << "element " << i;
  }
  std::vector<std::uint8_t> wrong_size(requests.size() - 1);
  EXPECT_THROW(image.evaluate_batch_allowed(requests, wrong_size),
               std::invalid_argument);
}

TEST(ProbeBackends, ProbeDepthObserverCountsAtLeastTheFourProbeKeys) {
  sim::Rng rng(31337);
  const PolicySet set = fuzz_policy_set(rng, 40);
  const CompiledPolicyImage image = CompiledPolicyImage::from_policy_set(set);
  for (const AccessRequest& request : fuzz_requests(rng, 100)) {
    // Four probe keys, each inspecting at least one slot; the cap is one
    // table revolution per key.
    const std::uint32_t depth = image.probe_depth(image.resolve(request));
    EXPECT_GE(depth, 4u);
  }
}

// -------------------------------------- MacEngine batch, reload, flush

mac::PolicyModule tiny_module(const std::string& name,
                              std::vector<mac::TeRule> allows) {
  mac::PolicyModule module;
  module.name = name;
  module.types = {"ecu_t", "doors_t", "sensors_t"};
  module.allows = std::move(allows);
  return module;
}

TEST(MacEngineBatch, ShuffledBatchByteIdenticalToScalarAcrossReload) {
  mac::MacEngine engine;
  engine.load_module(
      tiny_module("base", {{"doors_t", "ecu_t", "asset", {"read"}},
                           {"sensors_t", "ecu_t", "asset", {"read"}}}));
  engine.label("doors", mac::SecurityContext("sys", "r", "doors_t"));
  engine.label("sensors", mac::SecurityContext("sys", "r", "sensors_t"));
  engine.label("ecu", mac::SecurityContext("sys", "obj", "ecu_t"));

  const std::vector<std::string> entities = {"doors", "sensors", "ecu",
                                             "never-labelled"};
  std::vector<AccessRequest> string_requests;
  for (const auto& subject : entities) {
    for (const auto& object : entities) {
      for (const auto access : {AccessType::kRead, AccessType::kWrite}) {
        string_requests.push_back(AccessRequest{subject, object, access, {}});
      }
    }
  }
  sim::Rng rng(11);
  for (std::size_t i = string_requests.size() - 1; i > 0; --i) {
    std::swap(string_requests[i], string_requests[rng.uniform(0, i)]);
  }

  std::vector<SidRequest> requests;
  for (const auto& request : string_requests) {
    requests.push_back(engine.resolve(request));
  }

  const auto check_parity = [&](const char* phase) {
    std::vector<Decision> batch(requests.size());
    engine.evaluate_batch(requests, batch);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      // Scalar evaluate goes through the string request (label map and
      // all) — the batch of pre-resolved SIDs must answer identically,
      // allow and deny/audit text alike.
      expect_same_decision(batch[i], engine.evaluate(string_requests[i]),
                           std::string(phase) + " element " +
                               std::to_string(i) + ": " +
                               string_requests[i].to_string());
    }
  };

  check_parity("initial");
  EXPECT_GT(engine.avc_stats().hits, 0u);

  // A policy reload bumps the seqno; the batch path must notice (one
  // check for the whole span) and answer from the new database.
  const std::uint64_t flushes_before = engine.avc_stats().flushes;
  engine.load_module(
      tiny_module("extra", {{"doors_t", "ecu_t", "asset", {"write"}}}));
  AccessRequest doors_write{"doors", "ecu", AccessType::kWrite, {}};
  std::vector<SidRequest> one = {engine.resolve(doors_write)};
  std::vector<Decision> one_out(1);
  engine.evaluate_batch(one, one_out);
  EXPECT_TRUE(one_out[0].allowed) << "post-reload batch must see new rule";
  EXPECT_GT(engine.avc_stats().flushes, flushes_before);
  check_parity("post-reload");

  // Permissive mode: batch and scalar must agree on the audit text too.
  engine.set_permissive(true);
  check_parity("permissive");
  EXPECT_THROW(engine.evaluate_batch(requests, one_out),
               std::invalid_argument);
}

// --------------------------------------------------- fleet evaluation

TEST(FleetEvaluator, BatchedFleetByteIdenticalToStringPipeline) {
  const auto model = car::connected_car_threat_model();
  const PolicySet policy = car::full_policy(model);
  const CompiledPolicyImage& image = policy.image();

  car::FleetEvaluatorOptions options;
  options.fleet_size = 7;
  options.batch_chunk = 64;  // force mid-vehicle chunk boundaries
  car::FleetEvaluator fleet(image, car::default_fleet_checks(), options);
  fleet.set_mode(1, car::CarMode::kRemoteDiagnostic);
  fleet.set_mode(2, car::CarMode::kFailSafe);
  fleet.set_mode(5, car::CarMode::kFailSafe);

  const std::vector<car::FleetCheck> checks = car::default_fleet_checks();
  const std::size_t per_vehicle = checks.size();
  std::size_t cursor = 0;
  const car::FleetTickStats stats =
      fleet.tick([&](std::span<const SidRequest> requests,
                     std::span<const Decision> decisions) {
        ASSERT_EQ(requests.size(), decisions.size());
        for (std::size_t i = 0; i < decisions.size(); ++i, ++cursor) {
          const std::size_t vehicle = cursor / per_vehicle;
          const car::FleetCheck& check = checks[cursor % per_vehicle];
          const AccessRequest request{check.subject, check.object,
                                      check.access,
                                      car::mode_id(fleet.mode(vehicle))};
          expect_same_decision(decisions[i], oracle(policy, request),
                               "vehicle " + std::to_string(vehicle) + ": " +
                                   request.to_string());
        }
      });
  EXPECT_EQ(cursor, options.fleet_size * per_vehicle);
  EXPECT_EQ(stats.decisions, cursor);
  EXPECT_EQ(stats.allowed + stats.denied, stats.decisions);
  EXPECT_GT(stats.allowed, 0u);
  EXPECT_GT(stats.denied, 0u);

  // The three paths agree in aggregate too.
  const car::FleetTickStats scalar = fleet.tick_scalar();
  const car::FleetTickStats strings = fleet.tick_strings(policy);
  EXPECT_EQ(scalar.allowed, stats.allowed);
  EXPECT_EQ(scalar.decisions, stats.decisions);
  EXPECT_EQ(strings.allowed, stats.allowed);
  EXPECT_EQ(strings.decisions, stats.decisions);
}

TEST(FleetEvaluator, ValidatesConstructionAndModeAccess) {
  const PolicySet policy = car::full_policy(car::connected_car_threat_model());
  const CompiledPolicyImage& image = policy.image();
  car::FleetEvaluatorOptions empty_fleet;
  empty_fleet.fleet_size = 0;
  EXPECT_THROW(
      car::FleetEvaluator(image, car::default_fleet_checks(), empty_fleet),
      std::invalid_argument);
  EXPECT_THROW(car::FleetEvaluator(image, {}, {}), std::invalid_argument);

  car::FleetEvaluatorOptions options;
  options.fleet_size = 2;
  car::FleetEvaluator fleet(image, car::default_fleet_checks(), options);
  EXPECT_EQ(fleet.mode(0), car::CarMode::kNormal);
  fleet.set_mode(1, car::CarMode::kFailSafe);
  EXPECT_EQ(fleet.mode(1), car::CarMode::kFailSafe);
  EXPECT_THROW(fleet.set_mode(2, car::CarMode::kNormal), std::out_of_range);
}

// ------------------------------------------- binding-compiler statistics

TEST(BindingCompilerStats, CountsUniqueQuestionsAndHits) {
  const PolicySet policy = car::full_policy(car::connected_car_threat_model());
  car::BindingCompiler compiler(policy.image());
  for (const auto& node : car::node_bindings()) {
    (void)compiler.build_hpe_config(node.node);
  }
  const car::BindingCompiler::Stats& stats = compiler.stats();
  EXPECT_GT(stats.queries, stats.policy_evaluations);
  EXPECT_EQ(stats.unique_questions, stats.policy_evaluations);
  EXPECT_EQ(stats.memo_hits(), stats.queries - stats.policy_evaluations);

  // Image-constructed and PolicySet-constructed compilers agree.
  car::BindingCompiler via_set(policy);
  for (const auto& node : car::node_bindings()) {
    for (car::CarMode mode : car::kAllModes) {
      EXPECT_EQ(compiler.build_lists(node.node, mode).read.to_string(),
                via_set.build_lists(node.node, mode).read.to_string());
    }
  }
}

TEST(BindingCompilerStats, SurvivesPolicySetMutationViaRetainedSnapshot) {
  PolicySet policy = car::full_policy(car::connected_car_threat_model());
  car::BindingCompiler compiler(policy);
  const auto before =
      compiler.build_lists("doors", car::CarMode::kNormal).read.to_string();

  // Mutating the set drops its lazy image; the compiler must keep
  // answering (stale but well-defined) from the snapshot it retained.
  core::PolicyRule extra;
  extra.id = "post-hoc";
  extra.subject = "*";
  extra.object = "door-locks";
  extra.permission = threat::Permission::kNone;
  extra.priority = 1000;
  policy.add_rule(extra);

  EXPECT_EQ(compiler.build_lists("doors", car::CarMode::kNormal)
                .read.to_string(),
            before);
  // A compiler rebuilt against the mutated set sees the new rule.
  car::BindingCompiler rebuilt(policy);
  EXPECT_FALSE(rebuilt.anyone_may_write("door-locks", car::CarMode::kNormal));
}

TEST(MacEngineBatch, UnissuedSidsDenyWithoutThrowing) {
  mac::MacEngine engine;
  engine.load_module(
      tiny_module("base", {{"doors_t", "ecu_t", "asset", {"read"}}}));
  // Null and never-issued SIDs (including core::kUnresolvedSid, which
  // exceeds the packed 24-bit field) must deny with placeholder audit
  // text, not throw mid-batch or alias a real type.
  const std::vector<SidRequest> requests = {
      SidRequest{},
      SidRequest{core::kUnresolvedSid, 1, AccessType::kRead, mac::kNullSid},
      SidRequest{1, 0x00FFFFFFu, AccessType::kWrite, mac::kNullSid},
  };
  std::vector<Decision> out(requests.size());
  engine.evaluate_batch(requests, out);
  for (const Decision& decision : out) {
    EXPECT_FALSE(decision.allowed);
    EXPECT_EQ(decision.rule_id, "te");
  }
  EXPECT_NE(out[0].reason.find("<invalid-sid>"), std::string::npos);
}


// ------------------ first-match span scan: differential parity at scale

/// Few identities, two priorities and mixed mode masks: every span holds
/// dozens of entries tied on priority, so a span's first match must be
/// its lowest-index match and the cross-span tie-break still decides.
PolicySet tie_heavy_policy_set(sim::Rng& rng, std::size_t rules) {
  const std::vector<std::string> subjects = {"*", "a", "b"};
  const std::vector<std::string> objects = {"*", "x", "y"};
  const std::vector<std::string> modes = {"m1", "m2", "m3"};
  PolicySet set("ties", 1);
  for (std::size_t i = 0; i < rules; ++i) {
    core::PolicyRule rule;
    rule.id = "t" + std::to_string(i);
    rule.subject = subjects[rng.uniform(0, subjects.size() - 1)];
    rule.object = objects[rng.uniform(0, objects.size() - 1)];
    rule.permission = static_cast<threat::Permission>(rng.uniform(0, 3));
    rule.priority = static_cast<int>(rng.uniform(0, 1));
    for (const auto& mode : modes) {
      if (rng.chance(0.4)) rule.modes.push_back(threat::ModeId{mode});
    }
    set.add_rule(std::move(rule));
  }
  return set;
}

/// The OEM edit of `base`: drops some rules, re-prioritises others and
/// appends fresh ones, so the delta's reseal reorders existing spans.
PolicySet mutated_policy_set(sim::Rng& rng, const PolicySet& base) {
  PolicySet target(base.name(), base.version() + 1);
  target.set_default_allow(base.default_allow());
  for (const core::PolicyRule& rule : base.rules()) {
    if (rng.chance(0.1)) continue;
    core::PolicyRule kept = rule;
    if (rng.chance(0.2)) kept.priority = 1 - kept.priority;
    target.add_rule(std::move(kept));
  }
  const PolicySet fresh = tie_heavy_policy_set(rng, base.size() / 5);
  for (core::PolicyRule rule : fresh.rules()) {
    rule.id = "new-" + rule.id;
    target.add_rule(std::move(rule));
  }
  return target;
}

/// Requests over `subjects` x `objects`, always including the "*"
/// request identity, a never-interned name, the mode-less form and a
/// mode no rule names.
std::vector<AccessRequest> span_requests(sim::Rng& rng, std::size_t count,
                                         std::vector<std::string> subjects,
                                         std::vector<std::string> objects,
                                         std::vector<std::string> modes) {
  subjects.insert(subjects.end(), {"*", "never.seen"});
  objects.insert(objects.end(), {"*", "never.seen"});
  modes.insert(modes.end(), {"", "never-seen-mode"});
  std::vector<AccessRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(AccessRequest{
        subjects[rng.uniform(0, subjects.size() - 1)],
        objects[rng.uniform(0, objects.size() - 1)],
        rng.chance(0.5) ? AccessType::kRead : AccessType::kWrite,
        threat::ModeId{modes[rng.uniform(0, modes.size() - 1)]}});
  }
  return requests;
}

/// Every form a deployed image takes: the direct compile (owned), an
/// untrusted blob load and a sealed-store attach (both borrowed), and a
/// delta applied to `base_image` (owned, resealed on the vehicle).
std::vector<std::pair<std::string, CompiledPolicyImage>> deployed_forms(
    const CompiledPolicyImage& base_image, const PolicySet& target) {
  CompiledPolicyImage compiled = CompiledPolicyImage::from_policy_set(
      target, core::replicate_sid_prefix(base_image.sids(),
                                         base_image.sids().size()));
  const std::vector<std::byte> blob = core::PolicyBlobWriter::write(compiled);
  std::vector<std::pair<std::string, CompiledPolicyImage>> forms;
  forms.emplace_back("loaded", core::PolicyBlobReader::load(blob));
  forms.emplace_back("attached",
                     core::PolicyBlobReader::load(
                         core::PolicyBuffer::copy_of(blob), nullptr,
                         core::BlobTrust::kSealedStore));
  forms.emplace_back(
      "delta-applied",
      core::PolicyDeltaReader::apply(
          base_image, core::PolicyDeltaWriter::write(base_image, compiled)));
  forms.emplace_back("compiled", std::move(compiled));
  return forms;
}

/// Scalar evaluate, Decision batch and verdict-only batch, each against
/// the linear-scan oracle over `set`.
void expect_oracle_parity(const PolicySet& set,
                          const CompiledPolicyImage& image,
                          const std::vector<AccessRequest>& requests,
                          const std::string& form) {
  std::vector<SidRequest> resolved;
  resolved.reserve(requests.size());
  for (const AccessRequest& request : requests) {
    resolved.push_back(image.resolve(request));
  }
  std::vector<Decision> batch(resolved.size());
  image.evaluate_batch(resolved, batch);
  std::vector<std::uint8_t> verdicts(resolved.size());
  image.evaluate_batch_allowed(resolved, verdicts);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Decision want = oracle(set, requests[i]);
    const std::string context = form + " " + requests[i].to_string();
    expect_same_decision(image.evaluate(resolved[i]), want,
                         context + " (scalar)");
    expect_same_decision(batch[i], want, context + " (batch)");
    EXPECT_EQ(verdicts[i] != 0, want.allowed) << context << " (verdict)";
  }
}

/// Reads the sealed index back out of the image's own serialisation (the
/// writer copies it verbatim) and pins every span in decision order:
/// priority desc, then entry index asc.
void expect_spans_in_decision_order(const CompiledPolicyImage& image,
                                    const std::string& form) {
  const std::vector<std::byte> blob = core::PolicyBlobWriter::write(image);
  const std::byte* entries = nullptr;
  const std::byte* spans = nullptr;
  const std::byte* flat = nullptr;
  std::size_t slot_count = 0;
  for (const core::PolicyBlobSection& section :
       core::policy_blob_layout(blob)) {
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
  std::size_t multi_entry_spans = 0;
  for (std::size_t s = 0; s < slot_count; ++s) {
    const std::uint32_t offset = core::wire::load_u32(spans + 8 * s);
    const std::uint32_t count = core::wire::load_u32(spans + 8 * s + 4);
    if (count > 1) ++multi_entry_spans;
    for (std::uint32_t c = 1; c < count; ++c) {
      const std::uint32_t a = core::wire::load_u32(flat + 4 * (offset + c - 1));
      const std::uint32_t b = core::wire::load_u32(flat + 4 * (offset + c));
      EXPECT_TRUE(priority(a) > priority(b) ||
                  (priority(a) == priority(b) && a < b))
          << form << ": slot " << s << " entries " << a << ", " << b;
    }
  }
  EXPECT_GT(multi_entry_spans, 0u) << form;
}

TEST(PolicyImageSpanOrder, TieHeavyFuzzMatchesOracleInEveryDeployedForm) {
  sim::Rng rng(2718);
  for (int round = 0; round < 4; ++round) {
    const PolicySet base = tie_heavy_policy_set(rng, 240);
    const PolicySet target = mutated_policy_set(rng, base);
    const CompiledPolicyImage base_image =
        CompiledPolicyImage::from_policy_set(base);
    const std::vector<AccessRequest> requests =
        span_requests(rng, 400, {"a", "b"}, {"x", "y"}, {"m1", "m2", "m3"});
    for (const auto& [form, image] : deployed_forms(base_image, target)) {
      expect_oracle_parity(target, image, requests,
                           form + " round " + std::to_string(round));
    }
  }
}

TEST(PolicyImageSpanOrder, SynthTenThousandMatchesOracleInEveryDeployedForm) {
  // Quadratic duplicate-id scan at this size: about half a second.
  const core::SynthPolicyOptions options{10'000, 2, 0xC0FFEE};
  const PolicySet target = core::synth_policy_set(options);
  // The generator is sequential: the 9k-rule image is a prefix of the
  // 10k-rule stream, interned first — a prefix-compatible delta base.
  const CompiledPolicyImage base_image =
      core::synth_policy_image({9'000, 1, options.seed});
  std::vector<std::string> subjects;
  std::vector<std::string> objects;
  // Past the generator's 1250 endpoints and 16 assets: unknown names too.
  for (int i = 0; i < 1'300; ++i) {
    subjects.push_back("ep.synth." + std::to_string(i));
  }
  for (int j = 0; j < 18; ++j) {
    objects.push_back("asset.synth." + std::to_string(j));
  }
  sim::Rng rng(31337);
  const std::vector<AccessRequest> requests = span_requests(
      rng, 2'000, subjects, objects, {"normal", "degraded", "fail-safe"});
  for (const auto& [form, image] : deployed_forms(base_image, target)) {
    expect_oracle_parity(target, image, requests, form);
  }
}

TEST(PolicyImageSpanOrder, EverySpanIsSealedInDecisionOrder) {
  sim::Rng rng(1618);
  const PolicySet base = tie_heavy_policy_set(rng, 240);
  const CompiledPolicyImage base_image =
      CompiledPolicyImage::from_policy_set(base);
  expect_spans_in_decision_order(base_image, "built");
  for (const auto& [form, image] :
       deployed_forms(base_image, mutated_policy_set(rng, base))) {
    expect_spans_in_decision_order(image, form);
  }
  expect_spans_in_decision_order(core::synth_policy_image({10'000, 1, 7}),
                                 "synth-10k");
}

}  // namespace
}  // namespace psme
