#include "policy_phase.h"

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_boot.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "car_world.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "core/policy_image.h"
#include "core/policy_synth.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"

namespace perfbench {

namespace {

namespace car = psme::car;
namespace core = psme::core;
namespace sim = psme::sim;
using psme::threat::ModeId;

/// Everything set-up derives from the seed before the first timed call.
struct Inputs {
  std::unique_ptr<core::CompiledPolicyImage> base;
  std::unique_ptr<core::CompiledPolicyImage> target;
  std::vector<std::byte> blob;
  std::vector<std::byte> delta;
  double write_us = 0.0;
  core::AccessRequest first;
  std::vector<core::SidRequest> batched;    // synthetic: distinct requests
  std::vector<core::SidRequest> evaluated;  // single evaluate() calls
};

Inputs make_inputs(const RunOptions& options, const PolicySpec& spec) {
  Inputs in;
  sim::Rng rng(sim::mix3(options.seed, 0x9011C7, spec.synthetic ? 2 : 1));
  if (spec.synthetic) {
    // One fixed policy, as the car workloads have one fixed car policy:
    // the seed draws the requests. A per-seed policy would move decision
    // cost with the size of its wildcard spans, not with the code.
    // The generator is sequential, so the (n+1)-rule policy is the n-rule
    // one plus one rule, interning any new name after the base's: a
    // prefix-compatible SID space, as a 1-rule delta needs.
    const core::SynthPolicyOptions synth{spec.rules, 1};
    in.base = std::make_unique<core::CompiledPolicyImage>(core::synth_policy_image(synth));
    in.target = std::make_unique<core::CompiledPolicyImage>(
        core::synth_policy_image({spec.rules + 1, 2, synth.seed}));
  } else {
    const core::PolicySet base_set =
        car::full_policy(car::connected_car_threat_model(), 1);
    in.base = std::make_unique<core::CompiledPolicyImage>(
        core::CompiledPolicyImage::from_policy_set(base_set));
    in.target = std::make_unique<core::CompiledPolicyImage>(
        core::CompiledPolicyImage::from_policy_set(
            with_quarantine_rule(base_set),
            core::replicate_sid_prefix(in.base->sids(), in.base->sids().size())));
  }
  const Clock::time_point t0 = Clock::now();
  in.blob = core::PolicyBlobWriter::write(*in.base);
  in.write_us = ns_between(t0, Clock::now()) / 1e3;
  in.delta = core::PolicyDeltaWriter::write(*in.base, *in.target);
  if (options.inject == Inject::kBitflipDelta) {
    in.delta[in.delta.size() / 2] ^= std::byte{0x5A};
  }

  if (spec.synthetic) {
    in.first = {"ep.synth.0", "asset.synth.0", core::AccessType::kRead, ModeId{"normal"}};
    static const char* const kSynthModes[] = {"normal", "degraded", "fail-safe"};
    const std::uint64_t subjects = std::max<std::size_t>(1, spec.rules / 8);
    std::set<std::tuple<std::uint64_t, std::uint64_t, int, int>> seen;
    while (in.batched.size() < spec.distinct) {
      const auto key = std::make_tuple(rng.uniform(0, subjects - 1), rng.uniform(0, 15),
                                       static_cast<int>(rng.uniform(0, 1)),
                                       static_cast<int>(rng.uniform(0, 2)));
      if (!seen.insert(key).second) continue;
      const auto& [s, o, a, m] = key;
      in.batched.push_back(in.base->resolve(core::AccessRequest{
          "ep.synth." + std::to_string(s), "asset.synth." + std::to_string(o),
          a == 0 ? core::AccessType::kRead : core::AccessType::kWrite,
          ModeId{kSynthModes[m]}}));
    }
    for (std::size_t i = 0; i < spec.evaluate_calls; ++i) {
      in.evaluated.push_back(in.batched[rng.uniform(0, in.batched.size() - 1)]);
    }
  } else {
    in.first = car_first_request();
    std::vector<core::SidRequest> checks;
    for (const car::FleetCheck& check : car::default_fleet_checks()) {
      for (const char* mode : {"normal", "remote-diagnostic", "fail-safe"}) {
        checks.push_back(in.base->resolve(
            core::AccessRequest{check.subject, check.object, check.access, ModeId{mode}}));
      }
    }
    for (std::size_t i = 0; i < spec.evaluate_calls; ++i) {
      in.evaluated.push_back(checks[rng.uniform(0, checks.size() - 1)]);
    }
  }
  return in;
}

}  // namespace

PolicyRepetition policy_repetition(const RunOptions& options,
                                   const PolicySpec& spec, Tracer* tracer,
                                   Outcome& out) {
  const Clock::time_point setup_start = Clock::now();
  PolicyRepetition result;
  Samples& samples = out.samples;
  Digest digest;
  const Inputs in = make_inputs(options, spec);
  const std::uint64_t base_fp = in.base->fingerprint();
  const std::uint64_t target_fp = in.target->fingerprint();
  car::FleetEvaluatorOptions fleet_options;
  fleet_options.fleet_size = spec.fleet_size;

  const Clock::time_point timed_start = Clock::now();
  result.setup_s = ns_between(setup_start, timed_start) / 1e9;
  if (tracer != nullptr) tracer->reset_sums();

  // -- boot -> OTA cycles ----------------------------------------------------
  std::vector<double> boot_us, ota_us;
  std::unique_ptr<car::FleetBoot> device;
  double boot_phase_ns = 0.0, ota_phase_ns = 0.0;
  for (int k = 0; k < spec.boots; ++k) {
    if (tracer != nullptr) tracer->set_group(static_cast<std::uint64_t>(2 * k));
    device.reset();
    Clock::time_point t0 = Clock::now();
    {
      PhaseSpan span(tracer, "boot");
      device = std::make_unique<car::FleetBoot>(std::span<const std::byte>(in.blob),
                                                car::default_fleet_checks(), fleet_options);
      const core::CompiledPolicyImage& image = device->image();
      digest.add(image.evaluate(image.resolve(in.first)).allowed);
    }
    double ns = ns_between(t0, Clock::now());
    boot_us.push_back(ns / 1e3);
    boot_phase_ns += ns;
    ++out.ops;
    if (device->image().fingerprint() != base_fp) ++out.ops_failed;

    if (tracer != nullptr) tracer->set_group(static_cast<std::uint64_t>(2 * k + 1));
    t0 = Clock::now();
    car::UpdateResult r;
    {
      PhaseSpan span(tracer, "ota");
      r = device->try_apply_delta_update(in.delta);
      const core::CompiledPolicyImage& image = device->image();
      digest.add(image.evaluate(image.resolve(in.first)).allowed);
    }
    ns = ns_between(t0, Clock::now());
    ota_us.push_back(ns / 1e3);
    ota_phase_ns += ns;
    ++out.ops;
    const bool applied = r == car::UpdateResult::kOk;
    if (!applied || device->image().fingerprint() != target_fp) ++out.ops_failed;
    if (applied) {
      out.check(device->image().fingerprint() == target_fp,
                "OTA: delta-applied fingerprint differs from the compiled target");
    }
    digest.add(static_cast<std::uint64_t>(r));
  }
  const core::CompiledPolicyImage& image = device->image();

  // Correctness checks and warm-up passes run untimed by the metrics; the
  // traced split still accounts for them as their own phase.
  double check_phase_ns = 0.0;
  const auto checked = [&](auto&& body) {
    PhaseSpan span(tracer, "check");
    const Clock::time_point t0 = Clock::now();
    body();
    check_phase_ns += ns_between(t0, Clock::now());
  };

  // -- batched decisions (closed loop, one caller) ----------------------------
  double decide_ns_total = 0.0;
  std::uint64_t decisions = 0, allowed = 0;
  std::vector<double> tick_ms;
  if (tracer != nullptr) tracer->set_group(1'000'000);
  if (!spec.synthetic) {
    car::FleetEvaluator& fleet = device->fleet();
    sim::Rng churn(sim::mix3(options.seed, 0xC4A2, 4));
    const std::size_t churn_per_tick = std::max<std::size_t>(1, fleet.fleet_size() / 100);
    checked([&] {  // batched vs scalar on one fleet state
      const car::FleetTickStats batched = fleet.tick();
      const car::FleetTickStats scalar = fleet.tick_scalar();
      out.ops_failed += batched.allowed > scalar.allowed
                            ? batched.allowed - scalar.allowed
                            : scalar.allowed - batched.allowed;
    });
    for (int t = 0; t < spec.ticks; ++t) {
      for (std::size_t c = 0; c < churn_per_tick; ++c) {
        fleet.set_mode(churn.uniform(0, fleet.fleet_size() - 1),
                       static_cast<car::CarMode>(churn.uniform(0, 2)));
      }
      const Clock::time_point t0 = Clock::now();
      car::FleetTickStats stats;
      {
        PhaseSpan span(tracer, "tick");
        stats = fleet.tick();
      }
      const double ns = ns_between(t0, Clock::now());
      decide_ns_total += ns;
      tick_ms.push_back(ns / 1e6);
      decisions += stats.decisions;
      allowed += stats.allowed;
    }
  } else {
    std::vector<std::uint8_t> verdicts(in.batched.size());
    const auto batched_pass = [&] {
      for (std::size_t off = 0; off < in.batched.size(); off += kWireBatch) {
        const std::size_t n = std::min(kWireBatch, in.batched.size() - off);
        PhaseSpan span(tracer, "batch");
        image.evaluate_batch_allowed({in.batched.data() + off, n},
                                     {verdicts.data() + off, n});
      }
    };
    checked(batched_pass);  // warms the lazily built rule metadata
    for (int pass = 0; pass < spec.passes; ++pass) {
      const Clock::time_point t0 = Clock::now();
      batched_pass();
      decide_ns_total += ns_between(t0, Clock::now());
      decisions += in.batched.size();
      for (const std::uint8_t v : verdicts) allowed += v;
    }
    checked([&] {  // batched vs scalar on every distinct request
      for (std::size_t i = 0; i < in.batched.size(); ++i) {
        if (image.evaluate(in.batched[i]).allowed != (verdicts[i] != 0)) ++out.ops_failed;
      }
    });
    out.ops += in.batched.size();
    const Clock::time_point t0 = Clock::now();
    const car::FleetTickStats stats = device->fleet().tick();
    tick_ms.push_back(ns_between(t0, Clock::now()) / 1e6);
    digest.add(stats.allowed);
  }
  out.ops += decisions;
  digest.add(decisions);
  digest.add(allowed);
  const double decide_ns = decisions > 0 ? decide_ns_total / static_cast<double>(decisions) : 0.0;

  // -- single evaluate() calls ----------------------------------------------
  std::vector<std::uint8_t> expected(in.evaluated.size());
  double eval_batch_ns = 0.0;
  checked([&] {  // the batched verdicts the scalar calls must reproduce
    const Clock::time_point t0 = Clock::now();
    for (std::size_t off = 0; off < in.evaluated.size(); off += kWireBatch) {
      const std::size_t n = std::min(kWireBatch, in.evaluated.size() - off);
      image.evaluate_batch_allowed({in.evaluated.data() + off, n}, {expected.data() + off, n});
    }
    eval_batch_ns = ns_between(t0, Clock::now()) /
                    static_cast<double>(std::max<std::size_t>(1, in.evaluated.size()));
  });
  std::vector<double> eval_ns;
  eval_ns.reserve(in.evaluated.size());
  std::uint64_t eval_allowed = 0;
  double evaluate_phase_ns = 0.0;
  {
    PhaseSpan span(tracer, "evaluate");
    const Clock::time_point phase_start = Clock::now();
    for (std::size_t i = 0; i < in.evaluated.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const core::Decision d = image.evaluate(in.evaluated[i]);
      eval_ns.push_back(ns_between(t0, Clock::now()));
      if (d.allowed != (expected[i] != 0)) ++out.ops_failed;
      eval_allowed += d.allowed ? 1 : 0;
    }
    evaluate_phase_ns = ns_between(phase_start, Clock::now());
  }
  out.ops += in.evaluated.size();
  digest.add(eval_allowed);
  std::uint64_t depth_sum = 0;
  checked([&] {
    for (const core::SidRequest& r : in.evaluated) depth_sum += image.probe_depth(r);
  });
  const double timer_ns = clock_overhead_ns();
  double eval_mean = 0.0;
  for (const double v : eval_ns) eval_mean += v;
  eval_mean /= static_cast<double>(std::max<std::size_t>(1, eval_ns.size()));
  eval_mean -= timer_ns;
  std::sort(eval_ns.begin(), eval_ns.end());

  samples.add("boot_us", "us", median_of(boot_us));
  samples.add("ota_us", "us", median_of(ota_us));
  samples.add("decide_ns", "ns", decide_ns);
  samples.add("evaluate_p50_ns", "ns", percentile_sorted(eval_ns, 0.50) - timer_ns);
  samples.add("evaluate_p99_ns", "ns", percentile_sorted(eval_ns, 0.99) - timer_ns);
  samples.add("core.image.batch_ns", "ns", spec.synthetic ? decide_ns : eval_batch_ns);
  samples.add("core.image.evaluate_ns", "ns", eval_mean);
  samples.add("core.image.probe_depth", "probes",
              static_cast<double>(depth_sum) /
                  static_cast<double>(std::max<std::size_t>(1, in.evaluated.size())));
  samples.add("core.image.allow_share", "ratio", share(eval_allowed, in.evaluated.size()));
  samples.add("car.fleet.tick_ms", "ms", median_of(tick_ms));
  samples.add("car.fleet.allow_share", "ratio", share(allowed, decisions));
  samples.add("core.blob.bytes", "bytes", static_cast<double>(in.blob.size()));
  samples.add("core.blob.write_us", "us", in.write_us);
  samples.add("core.delta.bytes", "bytes", static_cast<double>(in.delta.size()));

  // -- the reference drive ----------------------------------------------------
  const Clock::time_point drive_start = Clock::now();
  CarSpec drive;
  drive.drive = spec.drive;
  drive.policy_samples = false;
  const CarRepetition car = car_repetition(options, drive, tracer, out);
  const double drive_phase_ns = ns_between(drive_start, Clock::now());
  digest.add(car.digest);

  if (tracer != nullptr) {
    // Per-layer prices of the boot and OTA phases, outside the split.
    std::vector<double> load_us, apply_us;
    for (int k = 0; k < std::max(3, spec.boots); ++k) {
      Clock::time_point t0 = Clock::now();
      const core::CompiledPolicyImage loaded = core::PolicyBlobReader::load(in.blob);
      load_us.push_back(ns_between(t0, Clock::now()) / 1e3);
      t0 = Clock::now();
      try {
        const core::CompiledPolicyImage applied = core::PolicyDeltaReader::apply(loaded, in.delta);
      } catch (const std::exception&) {
      }
      apply_us.push_back(ns_between(t0, Clock::now()) / 1e3);
    }
    samples.add("core.blob.load_us", "us", median_of(load_us));
    samples.add("core.delta.apply_us", "us", median_of(apply_us));
    samples.add("car.fleet_boot.self_us", "us", median_of(boot_us) - median_of(load_us));

    // The phase split of this repetition's timed wall time.
    const double total_ns = ns_between(timed_start, drive_start) + drive_phase_ns;
    const double decide_phase_ns = decide_ns_total;
    const double phases[] = {boot_phase_ns,     ota_phase_ns,   decide_phase_ns,
                             evaluate_phase_ns, check_phase_ns, drive_phase_ns};
    double known = 0.0;
    for (const double p : phases) known += p;
    samples.add("trace.phase.boot_ms", "ms", boot_phase_ns / 1e6);
    samples.add("trace.phase.ota_ms", "ms", ota_phase_ns / 1e6);
    samples.add("trace.phase.decide_ms", "ms", decide_phase_ns / 1e6);
    samples.add("trace.phase.evaluate_ms", "ms", evaluate_phase_ns / 1e6);
    samples.add("trace.phase.check_ms", "ms", check_phase_ns / 1e6);
    samples.add("trace.phase.drive_ms", "ms", drive_phase_ns / 1e6);
    samples.add("trace.phase.other_ms", "ms", (total_ns - known) / 1e6);
    samples.add("trace.total_ms", "ms", total_ns / 1e6);
  } else {
    const double total_ns = ns_between(timed_start, drive_start) + drive_phase_ns;
    samples.add("total_ms", "ms", total_ns / 1e6);
  }

  result.digest = digest.value();
  return result;
}

}  // namespace perfbench
