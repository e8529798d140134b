// perfbench — the car world: the Fig. 2 connected car under HPE
// enforcement with content rules, the 4-station OSEK-NM ring, an IDS tap
// feeding a FrameRateMonitor and the vehicle quarantine, built the way
// the attack campaign's flat-bus world builds them. On top, every
// component node's controller gets a wire MAC per mode, compiled by
// BindingCompiler::build_wire_table over an image its ECU booted from the
// vehicle's untrusted v2 policy blob through car::FleetBoot; the
// benchmark switches them by snooping the mode-change id on its tap.
#pragma once

#include <chrono>
#include <cstdint>

#include "bench.h"
#include "core/policy.h"
#include "trace.h"

namespace perfbench {

struct CarSpec {
  /// Benign simulated drive after the IDS training window (car_drive and
  /// the policy workloads' reference drive).
  std::chrono::milliseconds drive{0};
  /// Attack episodes after training (car_attack); each replays one
  /// single-bus CampaignPlan family with a fresh index.
  std::uint32_t episodes = 0;
  /// Report the ECUs' policy path (boot, decision replay, OTA) as the
  /// end-to-end boot_us / decide_ns / evaluate_*_ns / ota_us samples.
  bool policy_samples = true;
};

struct CarRepetition {
  std::uint64_t digest = 0;
  double setup_s = 0.0;  // world construction up to the first step()
};

/// The paper's 1-rule OTA: `source` plus car::quarantine_rule(), one
/// version later.
[[nodiscard]] psme::core::PolicySet with_quarantine_rule(
    const psme::core::PolicySet& source);

/// The request every boot and OTA answers before it counts as done.
[[nodiscard]] psme::core::AccessRequest car_first_request();

/// Builds one world from the seed, drives it and adds one sample per
/// metric to `out`. With `tracer` set, the timing sinks are spliced in
/// and the per-layer split is added; without it the frame path carries
/// no benchmark code besides the tap.
CarRepetition car_repetition(const RunOptions& options, const CarSpec& spec,
                             Tracer* tracer, Outcome& out);

}  // namespace perfbench
