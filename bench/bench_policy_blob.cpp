// Zero-copy boot: what does a vehicle pay before its first policy
// decision, and how does that cost scale with policy size?
//
// Three boot paths are priced, each to the first adjudicated decision:
//  - compile: the full cold boot — threat model -> derivation -> sealed
//    image (the 36-rule car policy only; the legacy acceptance row).
//  - v2 load (untrusted): validate + load a blob that crossed
//    a trust boundary — checksum, structural and semantic validation,
//    fingerprint cross-check. Inherently O(policy).
//  - v2 sealed attach (buffer and mmap'd file): the production boot from
//    the device's local store — O(1) structural checks, then the image
//    VIEWS the buffer in place. This is the path the flat-boot claim is
//    about: 50k rules must attach within 3x of 36 rules.
//
// Sizes: the 36-rule connected-car policy plus 1k/10k/50k synthetic
// policies (core/policy_synth.h, deterministic). Batched medians as in
// the other benches. A decision column prices the hot path at each size:
// batched verdict-only ns per decision over distinct requests (minimum
// of 30 runs). Exit status gates decision parity, the flat ratio
// (<= 3.0) AND the 50k/1k decision ratio (<= 3.0) — the CI bench smoke
// runs this binary.
// A JSON record of the run is printed for BENCH_policy_blob.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "car/base_policy.h"
#include "car/fleet_evaluator.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_blob.h"
#include "core/policy_buffer.h"
#include "core/policy_image.h"
#include "core/policy_synth.h"
#include "host_note.h"
#include "sim/rng.h"

using namespace psme;

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double since_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

[[nodiscard]] double median(std::vector<double>& xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// One decision every boot path must answer before it counts as booted.
/// The request names identities every sized policy knows.
[[nodiscard]] core::AccessRequest first_request(std::size_t rules) {
  if (rules == 0) {  // the car policy
    return {"ep.connectivity", "connectivity", core::AccessType::kWrite,
            threat::ModeId{"normal"}};
  }
  return {"ep.synth.0", "asset.synth.0", core::AccessType::kRead,
          threat::ModeId{"normal"}};
}

constexpr int kBatches = 9;

/// Measured figures for one policy size.
struct SizeRow {
  std::string label;
  std::size_t rules = 0;
  std::size_t blob_bytes = 0;
  double v2_load_us = 0.0;        // untrusted zero-copy load (full pass)
  double v2_attach_us = 0.0;      // sealed-store attach (buffer)
  double v2_file_attach_us = 0.0; // sealed-store attach (mmap'd file)
  double first_decision_us = 0.0; // first decision after a sealed attach
  double decide_ns = 0.0;         // batched verdict-only ns per decision
  bool parity = true;
};

/// Times `boot()` (construction up to a ready image) over batched
/// iterations; teardown stays outside the window.
template <class BootFn>
[[nodiscard]] double time_boot(int iters, const BootFn& boot) {
  std::vector<double> batch_means;
  for (int b = 0; b < kBatches; ++b) {
    double total_us = 0.0;
    for (int i = 0; i < iters; ++i) {
      const auto start = Clock::now();
      const core::CompiledPolicyImage image = boot();
      total_us += since_us(start);
      static_cast<void>(image);
    }
    batch_means.push_back(total_us / iters);
  }
  return median(batch_means);
}

/// Distinct requests for the decision column: every fleet check in every
/// car mode for the car policy; 4096 distinct (endpoint, asset, access,
/// mode) draws over the synthetic name space otherwise.
[[nodiscard]] std::vector<core::SidRequest> distinct_requests(
    std::size_t rules, const core::CompiledPolicyImage& image) {
  std::vector<core::SidRequest> requests;
  if (rules == 0) {
    for (const car::FleetCheck& check : car::default_fleet_checks()) {
      for (const char* mode : {"normal", "remote-diagnostic", "fail-safe"}) {
        requests.push_back(image.resolve(core::AccessRequest{
            check.subject, check.object, check.access, threat::ModeId{mode}}));
      }
    }
    return requests;
  }
  static const char* const kModes[] = {"normal", "degraded", "fail-safe"};
  const std::uint64_t subjects = std::max<std::size_t>(1, rules / 8);
  sim::Rng rng(0xDEC1DE + rules);
  std::set<std::tuple<std::uint64_t, std::uint64_t, int, int>> seen;
  while (requests.size() < 4096) {
    const auto key = std::make_tuple(rng.uniform(0, subjects - 1),
                                     rng.uniform(0, 15),
                                     static_cast<int>(rng.uniform(0, 1)),
                                     static_cast<int>(rng.uniform(0, 2)));
    if (!seen.insert(key).second) continue;
    const auto& [s, o, a, m] = key;
    requests.push_back(image.resolve(core::AccessRequest{
        "ep.synth." + std::to_string(s), "asset.synth." + std::to_string(o),
        a == 0 ? core::AccessType::kRead : core::AccessType::kWrite,
        threat::ModeId{kModes[m]}}));
  }
  return requests;
}

[[nodiscard]] SizeRow measure_size(std::string label, std::size_t rules,
                                   const core::CompiledPolicyImage& image) {
  SizeRow row;
  row.label = std::move(label);
  row.rules = image.size();

  const std::vector<std::byte> v2 = core::PolicyBlobWriter::write(image);
  row.blob_bytes = v2.size();
  const auto buffer = core::PolicyBuffer::take(
      std::vector<std::byte>(v2));  // one shared aligned buffer
  const std::string path =
      "/tmp/psme_bench_" + std::to_string(row.rules) + ".img";
  core::PolicyBlobWriter::write_file(image, path);

  // Iteration budget scales inversely with size so the 50k rows finish
  // in seconds while the small rows still average enough boots.
  const int untrusted_iters = static_cast<int>(
      std::max<std::size_t>(3, std::min<std::size_t>(200, 20000 / row.rules)));
  const int attach_iters = 200;  // sealed attach is flat — same count per size

  const core::AccessRequest request = first_request(rules);
  const core::Decision want = image.evaluate(image.resolve(request));
  const auto check = [&](const core::CompiledPolicyImage& loaded) {
    const core::Decision got = loaded.evaluate(loaded.resolve(request));
    if (got.allowed != want.allowed || got.rule_id != want.rule_id ||
        got.reason != want.reason ||
        loaded.fingerprint() != image.fingerprint()) {
      row.parity = false;
    }
  };

  row.v2_load_us = time_boot(untrusted_iters, [&] {
    return core::PolicyBlobReader::load(buffer, nullptr,
                                        core::BlobTrust::kUntrusted);
  });
  row.v2_attach_us = time_boot(attach_iters, [&] {
    return core::PolicyBlobReader::load(buffer, nullptr,
                                        core::BlobTrust::kSealedStore);
  });
  row.v2_file_attach_us = time_boot(attach_iters, [&] {
    return core::PolicyBlobReader::load_file(path, nullptr,
                                             core::BlobTrust::kSealedStore);
  });

  // First decision after a sealed attach: index probes plus the one-time
  // lazy materialisation of that rule's audit meta.
  {
    std::vector<double> batch_means;
    for (int b = 0; b < kBatches; ++b) {
      double total_us = 0.0;
      for (int i = 0; i < attach_iters; ++i) {
        const core::CompiledPolicyImage attached = core::PolicyBlobReader::load(
            buffer, nullptr, core::BlobTrust::kSealedStore);
        const core::SidRequest resolved = attached.resolve(request);
        const auto start = Clock::now();
        const core::Decision got = attached.evaluate(resolved);
        total_us += since_us(start);
        if (got.allowed != want.allowed || got.rule_id != want.rule_id) {
          row.parity = false;
        }
      }
      batch_means.push_back(total_us / attach_iters);
    }
    row.first_decision_us = median(batch_means);
  }

  // Decision cost: 256-wide verdict-only batches over distinct requests,
  // the minimum of 30 runs (the least-disturbed pass of the hot path).
  {
    const std::vector<core::SidRequest> requests =
        distinct_requests(rules, image);
    std::vector<std::uint8_t> verdicts(requests.size());
    constexpr std::size_t kBatch = 256;
    double best_ns = std::numeric_limits<double>::infinity();
    for (int run = 0; run < 30; ++run) {
      const auto start = Clock::now();
      for (std::size_t off = 0; off < requests.size(); off += kBatch) {
        const std::size_t n = std::min(kBatch, requests.size() - off);
        image.evaluate_batch_allowed({requests.data() + off, n},
                                     {verdicts.data() + off, n});
      }
      best_ns = std::min(best_ns, since_us(start) * 1e3 /
                                      static_cast<double>(requests.size()));
    }
    row.decide_ns = best_ns;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (image.evaluate(requests[i]).allowed != (verdicts[i] != 0)) {
        row.parity = false;
      }
    }
  }

  // Full parity checks, once per path (the timed loops sample nothing to
  // keep the window honest).
  check(core::PolicyBlobReader::load(buffer));
  check(core::PolicyBlobReader::load(buffer, nullptr,
                                     core::BlobTrust::kSealedStore));
  check(core::PolicyBlobReader::load_file(path));
  std::remove(path.c_str());
  return row;
}

}  // namespace

int main() {
  std::printf("=== Boot to first decision vs policy size: compile, "
              "v2 zero-copy ===\n\n");

  // --- the legacy acceptance row: 36-rule car policy, compile vs load ---
  const auto model = car::connected_car_threat_model();
  const core::PolicySet reference_policy = car::full_policy(model);
  const core::CompiledPolicyImage& reference = reference_policy.image();
  const auto write_start = Clock::now();
  const std::vector<std::byte> blob = core::PolicyBlobWriter::write(reference);
  const double write_us = since_us(write_start);
  const core::AccessRequest car_request = first_request(0);
  const core::Decision want = reference.evaluate(reference.resolve(car_request));

  bool parity_ok = true;
  std::vector<double> compile_batches;
  for (int b = 0; b < kBatches; ++b) {
    double total_us = 0.0;
    constexpr int kCompileBatch = 64;
    for (int i = 0; i < kCompileBatch; ++i) {
      const auto start = Clock::now();
      const core::PolicySet policy =
          car::full_policy(car::connected_car_threat_model());
      const core::Decision got =
          policy.image().evaluate(policy.image().resolve(car_request));
      total_us += since_us(start);
      if (got.allowed != want.allowed || got.rule_id != want.rule_id) {
        parity_ok = false;
      }
    }
    compile_batches.push_back(total_us / kCompileBatch);
  }
  const double compile_us = median(compile_batches);

  std::vector<double> load_batches;
  for (int b = 0; b < kBatches; ++b) {
    double total_us = 0.0;
    constexpr int kLoadBatch = 640;
    for (int i = 0; i < kLoadBatch; ++i) {
      const auto start = Clock::now();
      const core::CompiledPolicyImage image = core::PolicyBlobReader::load(blob);
      const core::Decision got = image.evaluate(image.resolve(car_request));
      total_us += since_us(start);
      if (got.allowed != want.allowed || got.rule_id != want.rule_id) {
        parity_ok = false;
      }
    }
    load_batches.push_back(total_us / kLoadBatch);
  }
  const double load_us = median(load_batches);
  const double speedup = compile_us / load_us;

  std::printf("car policy blob: %zu bytes (%zu rules, %zu names), written in "
              "%.1f us\n",
              blob.size(), reference.size(), reference.sids().size(), write_us);
  std::printf("compile cold start  %9.1f us\n", compile_us);
  std::printf("blob load + decide  %9.1f us   speedup %.1fx (target >= 10x "
              "— %s)\n\n",
              load_us, speedup, speedup >= 10.0 ? "met" : "MISSED");

  // --- the size axis ----------------------------------------------------
  std::vector<SizeRow> rows;
  rows.push_back(measure_size("car-36", 0, reference));
  for (const std::size_t rules : {std::size_t{1000}, std::size_t{10000},
                                  std::size_t{50000}}) {
    rows.push_back(measure_size("synth-" + std::to_string(rules), rules,
                                core::synth_policy_image(
                                    {rules, 1, 0xC0FFEE})));
  }

  std::printf("%-12s %10s %12s %12s %12s %12s %10s %10s\n", "size",
              "rules", "blob bytes", "v2 load us", "attach us", "file attach",
              "1st dec us", "decide ns");
  for (const SizeRow& row : rows) {
    std::printf("%-12s %10zu %12zu %12.1f %12.2f %12.2f %10.2f %10.1f\n",
                row.label.c_str(), row.rules, row.blob_bytes,
                row.v2_load_us, row.v2_attach_us, row.v2_file_attach_us,
                row.first_decision_us, row.decide_ns);
    if (!row.parity) parity_ok = false;
  }

  // The flat-boot acceptance: sealed attach of 50k rules within 3x of 36.
  const double flat_ratio = rows.back().v2_attach_us / rows.front().v2_attach_us;
  const bool flat_ok = flat_ratio <= 3.0;
  // The decision-cost acceptance: a 50k-rule decision within 3x of 1k.
  const double decide_ratio = rows.back().decide_ns / rows[1].decide_ns;
  const bool decide_ok = decide_ratio <= 3.0;
  std::printf("\nsealed attach 50k/36 ratio: %.2fx (target <= 3.0x — %s); "
              "decision 50k/1k ratio: %.2fx (target <= 3.0x — %s); "
              "decision parity: %s\n\n",
              flat_ratio, flat_ok ? "met" : "MISSED", decide_ratio,
              decide_ok ? "met" : "MISSED",
              parity_ok ? "byte-identical" : "MISMATCH");

  // Machine-readable record (BENCH_policy_blob.json).
  std::printf("JSON: {\"bench\":\"policy_blob\",\"unit\":\"us/coldstart\",");
  benchhost::print_host_json();
  std::printf(",\"blob_bytes\":%zu,\"write_us\":%.1f,"
              "\"compile_us\":%.1f,\"load_us\":%.1f,\"speedup\":%.1f,"
              "\"flat_ratio\":%.2f,\"decide_ratio\":%.2f,\"parity\":%s,"
              "\"sizes\":[",
              blob.size(), write_us, compile_us, load_us, speedup, flat_ratio,
              decide_ratio, parity_ok ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SizeRow& row = rows[i];
    std::printf("%s{\"label\":\"%s\",\"rules\":%zu,\"blob_bytes\":%zu,"
                "\"v2_load_us\":%.1f,"
                "\"v2_attach_us\":%.2f,\"v2_file_attach_us\":%.2f,"
                "\"first_decision_us\":%.2f,\"decide_ns\":%.1f}",
                i == 0 ? "" : ",", row.label.c_str(), row.rules,
                row.blob_bytes, row.v2_load_us,
                row.v2_attach_us, row.v2_file_attach_us,
                row.first_decision_us, row.decide_ns);
  }
  std::printf("]}\n");

  // Exit gates parity, the flat ratio AND the decision ratio. Parity is
  // a defect anywhere; both ratios compare two measurements on the same
  // machine in the same run, so scheduling noise largely cancels. A flat
  // ratio miss means the attach path grew an O(n) step; a decision ratio
  // miss means a decision went back to scanning whole spans. The 10x
  // compile-vs-load speedup stays informational (absolute,
  // hardware-dependent).
  return parity_ok && flat_ok && decide_ok ? 0 : 1;
}
