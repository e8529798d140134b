// perfbench — the policy path: device boot from an untrusted v2 blob
// through car::FleetBoot, a 1-rule delta OTA, then closed-loop decisions
// (FleetEvaluator ticks for the car policy, wire-sized batches and single
// evaluate() calls for the synthetic one), then a short reference drive
// of the car world so the frame path is measured on every workload.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "bench.h"
#include "trace.h"

namespace perfbench {

struct PolicySpec {
  bool synthetic = false;        // core::policy_synth instead of the car policy
  std::size_t rules = 50'000;    // synthetic policy size
  std::size_t fleet_size = 1;    // vehicles in the booted FleetEvaluator
  int boots = 8;                 // boot -> OTA cycles per repetition
  int ticks = 0;                 // FleetEvaluator::tick() calls (car policy)
  std::size_t distinct = 0;      // distinct batched requests (synthetic)
  int passes = 0;                // timed passes over them
  std::size_t evaluate_calls = 0;
  std::chrono::milliseconds drive{0};  // reference drive after training
};

struct PolicyRepetition {
  std::uint64_t digest = 0;
  double setup_s = 0.0;
};

PolicyRepetition policy_repetition(const RunOptions& options,
                                   const PolicySpec& spec, Tracer* tracer,
                                   Outcome& out);

}  // namespace perfbench
