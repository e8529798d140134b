// Wire-rate MAC throughput: frames/second through one can::WireMac
// adjudicating controller ingress against the deployed connected-car
// policy image (car::full_policy -> CompiledPolicyImage, the boot-path
// product configuration). A WireMac compiles every binding's verdict
// when it is built, so each frame costs a classification and a table
// lookup; these rows price exactly that.
//
// Three workloads, all seeded and reproducible:
//
//   classic — 11-bit ids drawn from the engine node's binding table
//             (status reads, ∃-writer command checks, the OSEK-NM pass
//             window, and unbound ids that deny by default), swept over
//             batch sizes 1 / 16 / 256 / 4096. adjudicate_batch() is
//             admit() in a loop, so what the sweep shows across batch
//             sizes is per-call harness overhead, not policy work;
//   j1939   — 29-bit extended ids through the PGN table: a PDU2
//             broadcast binding, a PDU1 destination-specific binding
//             and a per-source address->subject table;
//   isotp   — segmented ISO-TP conversations on 0x500 through a
//             hand-made table that binds that id as a transport flow
//             (the car's own tables bind 0x500 single-frame): the flow
//             is adjudicated once at the first frame and every
//             consecutive frame rides that verdict.
//
// Before any timing, a differential parity gate re-runs the classic
// stream at three pinned seeds, batched (256) versus per-frame scalar
// admit() on a fresh WireMac, and requires byte-identical verdicts —
// the same oracle tests/test_wire_mac.cpp pins, wired into the bench so
// a CI throughput run cannot pass on a divergent path.
//
// Exit status: non-zero if parity fails, the batched classic rate falls
// below 2M frames/sec/core, or the ISO-TP row does not ride flows
// (flow frames per adjudication must exceed 1). Prints a JSON record
// for BENCH_wire_mac.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "can/frame.h"
#include "can/isotp.h"
#include "can/wire_mac.h"
#include "car/base_policy.h"
#include "car/ids.h"
#include "car/network_mgmt.h"
#include "car/policy_binding.h"
#include "car/table1.h"
#include "core/policy_image.h"
#include "host_note.h"
#include "sim/rng.h"

using namespace psme;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::array<std::uint64_t, 3> kSeeds{0xAAAA, 0x1234, 0xC0FE};

/// The classic 11-bit id pool: every flavour of ingress decision the
/// engine-node table can make. Mirrors the differential test's stream.
std::vector<can::CanId> classic_pool() {
  return {
      can::CanId::standard(car::msg::kEngineCommand),  // ∃-writer gate
      can::CanId::standard(car::msg::kEngineStatus),   // own-asset read
      can::CanId::standard(car::msg::kEcuStatus),      // foreign status
      can::CanId::standard(car::msg::kSensorSpeed),    // sensor read
      can::CanId::standard(car::msg::kEcuCommand),     // unowned command
      can::CanId::standard(car::nm::kNmBase),          // NM window low
      can::CanId::standard(car::nm::kNmBase | car::nm::kMaxAddress),
      can::CanId::standard(0x6FF),                     // unbound, denies
  };
}

std::vector<can::Frame> classic_stream(std::uint64_t seed, std::size_t count) {
  const auto pool = classic_pool();
  sim::Rng rng(seed);
  std::vector<can::Frame> frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = pool[rng.uniform(0, pool.size() - 1)];
    const std::array<std::uint8_t, 8> data{
        static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
        0, 0, 0, 0, 0, 0};
    frames.emplace_back(id, data);
  }
  return frames;
}

struct Throughput {
  double frames_per_sec = 0.0;
  std::uint64_t frames = 0;
};

/// Streams `frames` through `mac` in `batch`-sized slices until at
/// least `target` frames have been adjudicated, then reports the rate.
Throughput measure(can::WireMac& mac, const std::vector<can::Frame>& frames,
                   std::size_t batch, std::uint64_t target) {
  std::vector<std::uint8_t> allowed(batch);
  sim::SimTime now{};
  // Untimed warm-up pass fills the AVC/memo and the scratch buffers.
  for (std::size_t i = 0; i + batch <= frames.size(); i += batch) {
    now += std::chrono::microseconds(1);
    mac.adjudicate_batch({frames.data() + i, batch}, now, allowed);
  }
  Throughput result;
  const auto start = Clock::now();
  double elapsed_ns = 0.0;
  do {
    for (std::size_t i = 0; i + batch <= frames.size(); i += batch) {
      now += std::chrono::microseconds(1);
      mac.adjudicate_batch({frames.data() + i, batch}, now, allowed);
      result.frames += batch;
    }
    elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  } while (result.frames < target);
  result.frames_per_sec = static_cast<double>(result.frames) * 1e9 / elapsed_ns;
  return result;
}

/// Batched (256) vs per-frame scalar admit() on fresh engines: the
/// differential oracle, required byte-identical before timing starts.
bool parity_holds(const core::CompiledPolicyImage& image,
                  car::BindingCompiler& compiler, std::uint64_t seed) {
  const auto frames = classic_stream(seed, 4096);
  can::WireMac batched(compiler.build_wire_table("engine", car::CarMode::kNormal),
                       image);
  can::WireMac scalar(compiler.build_wire_table("engine", car::CarMode::kNormal),
                      image);
  std::vector<std::uint8_t> got_batched(frames.size());
  sim::SimTime now{};
  for (std::size_t i = 0; i < frames.size(); i += 256) {
    batched.adjudicate_batch({frames.data() + i, 256}, now,
                             {got_batched.data() + i, 256});
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::uint8_t want = scalar.admit(frames[i], now) ? 1 : 0;
    if (want != got_batched[i]) {
      std::fprintf(stderr, "parity violation: seed=%llu frame=%zu id=%s\n",
                   static_cast<unsigned long long>(seed), i,
                   frames[i].id().to_string().c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const core::PolicySet policy =
      car::full_policy(car::connected_car_threat_model());
  const auto image = policy.image_ptr();
  car::BindingCompiler compiler(*image);

  // --- parity gate before any timing ---
  bool parity = true;
  for (const std::uint64_t seed : kSeeds) {
    parity = parity && parity_holds(*image, compiler, seed);
  }
  std::fprintf(stderr, "parity (batched vs scalar, %zu seeds): %s\n",
               kSeeds.size(), parity ? "ok" : "FAILED");

  constexpr std::uint64_t kTarget = 4'000'000;

  // --- classic 11-bit sweep over batch sizes ---
  const auto classic = classic_stream(kSeeds[0], 16384);
  constexpr std::array<std::size_t, 4> kBatches{1, 16, 256, 4096};
  std::array<Throughput, 4> classic_rows;
  for (std::size_t b = 0; b < kBatches.size(); ++b) {
    can::WireMac mac(compiler.build_wire_table("engine", car::CarMode::kNormal),
                     *image);
    classic_rows[b] = measure(mac, classic, kBatches[b], kTarget);
    std::fprintf(stderr, "classic batch=%4zu: %.2fM frames/s\n", kBatches[b],
                 classic_rows[b].frames_per_sec / 1e6);
  }

  // --- J1939 29-bit ids through the PGN table ---
  mac::SidTable& sids = *image->sid_table();
  can::WireBindingTable::Builder j1939_builder;
  j1939_builder.set_mode(
      compiler.build_wire_table("engine", car::CarMode::kNormal).mode_sid());
  {
    // PDU2 broadcast (engine telemetry), PDU1 destination-specific
    // (commands at the engine ECU) and a per-source subject table.
    const std::array<mac::Sid, 1> engine_ep{sids.intern(car::entry::kEngine)};
    j1939_builder.bind_pgn(0xFEF1, engine_ep, sids.intern(car::asset::kEngine),
                           core::AccessType::kRead);
    j1939_builder.bind_pgn(0xDA00, engine_ep, sids.intern(car::asset::kEngine),
                           core::AccessType::kWrite);
    j1939_builder.bind_pgn(0xFECA, {}, sids.intern(car::asset::kSensors),
                           core::AccessType::kRead);  // per-source subjects
    j1939_builder.j1939_source(0x10, sids.intern(car::entry::kSensors));
    j1939_builder.j1939_source(0x42, sids.intern(car::entry::kInfotainment));
  }
  can::WireMac j1939_mac(j1939_builder.build(), *image);
  std::vector<can::Frame> j1939;
  {
    sim::Rng rng(kSeeds[1]);
    const std::array<std::uint32_t, 4> raws{
        0x18FEF103u,  // PDU2 broadcast, pgn 0xFEF1
        0x18DA10F1u,  // PDU1 to 0x10, pgn 0xDA00
        0x18FECA10u,  // per-source, src 0x10 -> sensors entry point
        0x18FECA99u,  // per-source, unknown src -> unbound deny
    };
    const std::array<std::uint8_t, 8> data{0, 1, 2, 3, 4, 5, 6, 7};
    for (std::size_t i = 0; i < 16384; ++i) {
      j1939.emplace_back(
          can::CanId::extended(raws[rng.uniform(0, raws.size() - 1)]), data);
    }
  }
  const Throughput j1939_row = measure(j1939_mac, j1939, 256, kTarget);
  std::fprintf(stderr, "j1939   batch= 256: %.2fM frames/s\n",
               j1939_row.frames_per_sec / 1e6);

  // --- ISO-TP conversations in remote-diagnostic mode ---
  // The connectivity entry point (the remote-diagnostic commander) may
  // write the EV ECU in this mode, so every flow is allowed.
  can::WireBindingTable::Builder isotp_builder;
  isotp_builder.set_mode(
      compiler.build_wire_table("connectivity", car::CarMode::kRemoteDiagnostic)
          .mode_sid());
  {
    const std::array<mac::Sid, 1> diag_ep{sids.intern(car::entry::kConnectivity)};
    isotp_builder.bind_standard(car::msg::kDiagRequest, diag_ep,
                                sids.intern(car::asset::kEvEcu),
                                core::AccessType::kWrite, /*isotp=*/true);
  }
  can::WireMac isotp_mac(isotp_builder.build(), *image);
  std::vector<can::Frame> isotp;
  {
    sim::Rng rng(kSeeds[2]);
    std::vector<std::uint8_t> payload(512);
    while (isotp.size() < 16384) {
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(rng.uniform(0, 255));
      }
      const auto frames = can::isotp_segment(
          can::CanId::standard(car::msg::kDiagRequest), payload);
      isotp.insert(isotp.end(), frames.begin(), frames.end());
    }
    isotp.resize(16384 - 16384 % 256);
  }
  const Throughput isotp_row = measure(isotp_mac, isotp, 256, kTarget);
  std::fprintf(stderr, "isotp   batch= 256: %.2fM frames/s\n",
               isotp_row.frames_per_sec / 1e6);
  const double flow_amortisation =
      isotp_mac.stats().adjudicated > 0
          ? static_cast<double>(isotp_mac.stats().flow_frames) /
                static_cast<double>(isotp_mac.stats().adjudicated)
          : 0.0;

  // --- gates ---
  constexpr double kFloorFramesPerSec = 2e6;
  const double gated = classic_rows[2].frames_per_sec;  // batch 256
  const bool rate_ok = gated >= kFloorFramesPerSec;
  std::fprintf(stderr, "gate: classic batch=256 %.2fM >= 2.00M: %s\n",
               gated / 1e6, rate_ok ? "ok" : "FAILED");
  const bool flows_ok = flow_amortisation > 1.0;
  std::fprintf(stderr, "gate: isotp flow frames per adjudication %.1f > 1: %s\n",
               flow_amortisation, flows_ok ? "ok" : "FAILED");

  // --- JSON record ---
  std::printf("{\"bench\":\"wire_mac\",");
  benchhost::print_host_json();
  std::printf(",\"unit\":\"frames_per_sec\",\"rows\":[");
  for (std::size_t b = 0; b < kBatches.size(); ++b) {
    std::printf("%s{\"workload\":\"classic\",\"batch\":%zu,\"frames_per_sec\":%.0f}",
                b == 0 ? "" : ",", kBatches[b], classic_rows[b].frames_per_sec);
  }
  std::printf(",{\"workload\":\"j1939\",\"batch\":256,\"frames_per_sec\":%.0f}",
              j1939_row.frames_per_sec);
  std::printf(
      ",{\"workload\":\"isotp\",\"batch\":256,\"frames_per_sec\":%.0f,"
      "\"flow_frames_per_adjudication\":%.1f}",
      isotp_row.frames_per_sec, flow_amortisation);
  std::printf("],\"parity\":%s,\"gate\":{\"metric\":\"classic_batch256\","
              "\"floor\":2000000,\"measured\":%.0f,\"pass\":%s},"
              "\"flow_gate\":{\"metric\":\"isotp_flow_frames_per_adjudication\","
              "\"above\":1,\"measured\":%.1f,\"pass\":%s}}\n",
              parity ? "true" : "false", gated, rate_ok ? "true" : "false",
              flow_amortisation, flows_ok ? "true" : "false");

  return (parity && rate_ok && flows_ok) ? EXIT_SUCCESS : EXIT_FAILURE;
}
