// perfbench — the benchmark binary. Runs one workload for a wall-time budget as
// repeated, identically seeded repetitions and prints every sample as one
// JSON document on stdout; run.py reduces it to the benchmark's result.
//
//   perfbench --workload car_drive --seed 1 --seconds 10 --trace 0
//             [--smoke] [--inject none|wrong-node-table|bitflip-delta]
//             [--spans PATH]
#include <malloc.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "car_world.h"
#include "policy_phase.h"
#include "trace.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "car_drive|car_attack|policy_car36|policy_synth50k --seed N "
               "--seconds S --trace 0|1 [--smoke] [--inject "
               "none|wrong-node-table|bitflip-delta] [--spans PATH]\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  options.process_start = Clock::now();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--spans") {
      options.span_out = value();
    } else if (arg == "--inject") {
      const std::string what = value();
      if (what == "none") {
        options.inject = Inject::kNone;
      } else if (what == "wrong-node-table") {
        options.inject = Inject::kWrongNodeTable;
      } else if (what == "bitflip-delta") {
        options.inject = Inject::kBitflipDelta;
      } else {
        usage(("unknown fault " + what).c_str());
      }
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

/// VmHWM of this process in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// One repetition of the named workload; returns its digest and adds the
/// set-up time sample.
std::uint64_t repetition(const RunOptions& options, Tracer* tracer, Outcome& out,
                         Clock::time_point setup_origin) {
  const bool smoke = options.smoke;
  double setup_s = 0.0;
  std::uint64_t digest = 0;
  const double origin_s =
      ns_between(setup_origin, Clock::now()) / 1e9;  // > 0 only for the first
  if (options.workload == "car_drive" || options.workload == "car_attack") {
    CarSpec spec;
    if (options.workload == "car_drive") {
      spec.drive = std::chrono::milliseconds{smoke ? 3000 : 300000};
    } else {
      spec.episodes = smoke ? 9 : 72;
    }
    const CarRepetition rep = car_repetition(options, spec, tracer, out);
    setup_s = rep.setup_s;
    digest = rep.digest;
  } else if (options.workload == "policy_car36" ||
             options.workload == "policy_synth50k") {
    PolicySpec spec;
    if (options.workload == "policy_car36") {
      spec.fleet_size = smoke ? 100 : 10'000;
      spec.boots = smoke ? 8 : 64;
      spec.ticks = smoke ? 4 : 24;
      spec.evaluate_calls = smoke ? 2'000 : 100'000;
    } else {
      spec.synthetic = true;
      spec.rules = smoke ? 2'000 : 50'000;
      spec.boots = smoke ? 2 : 4;
      spec.distinct = smoke ? 2'048 : 16'384;
      spec.passes = smoke ? 2 : 8;
      spec.evaluate_calls = smoke ? 2'048 : 16'384;
    }
    spec.drive = std::chrono::milliseconds{smoke ? 1000 : 30000};
    const PolicyRepetition rep = policy_repetition(options, spec, tracer, out);
    setup_s = rep.setup_s;
    digest = rep.digest;
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }
  out.samples.add(tracer != nullptr ? "trace.setup_s" : "setup_s", "s",
                  origin_s + setup_s);
  return digest;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
  Outcome out;
  Tracer tracer;
  std::uint64_t first_digest = 0;

  // Untraced runs repeat until the budget is spent. Traced runs
  // alternate untraced and traced repetitions, so the tracing overhead
  // is a difference of two medians from the same process.
  const int min_reps = options.smoke ? (options.trace ? 2 : 1) : (options.trace ? 4 : 3);
  const Clock::time_point budget_start = Clock::now();
  Clock::time_point setup_origin = options.process_start;
  for (int rep = 0;; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    const std::uint64_t digest =
        repetition(options, traced ? &tracer : nullptr, out, setup_origin);
    // Hand freed heap back to the kernel between repetitions, so the
    // peak RSS reflects one repetition's footprint rather than how many
    // repetitions the budget allowed.
    malloc_trim(0);
    setup_origin = Clock::now();
    if (rep == 0) first_digest = digest;
    out.check(digest == first_digest,
              "repetitions at one seed produced different simulated statistics");
    ++out.reps;
    const double spent = ns_between(budget_start, Clock::now()) / 1e9;
    if (rep + 1 >= min_reps && spent >= options.seconds) break;
    if (rep + 1 >= 400) break;
  }
  out.samples.add("peak_rss_mb", "MiB", peak_rss_mb());

  if (options.trace && !options.span_out.empty() &&
      !tracer.write_csv(options.span_out)) {
    out.check(false, "could not write spans to " + options.span_out);
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"workload\":\"" << options.workload << "\",\"seed\":" << options.seed
       << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"reps\":" << out.reps
       << ",\"digest\":\"" << std::hex << first_digest << std::dec << "\""
       << ",\"correct\":" << (out.check_failures.empty() ? "true" : "false")
       << ",\"ops\":" << out.ops << ",\"ops_failed\":" << out.ops_failed
       << ",\"ops_lost\":" << out.ops_lost
       << ",\"check_failures\":[";
  for (std::size_t i = 0; i < out.check_failures.size(); ++i) {
    json << (i ? "," : "") << "\"" << json_escape(out.check_failures[i]) << "\"";
  }
  json << "],\"samples\":{";
  bool first = true;
  for (const auto& [name, series] : out.samples.all()) {
    json << (first ? "" : ",") << "\"" << name << "\":{\"unit\":\"" << series.unit
         << "\",\"values\":[";
    for (std::size_t i = 0; i < series.values.size(); ++i) {
      json << (i ? "," : "");
      if (std::isfinite(series.values[i])) {
        json << series.values[i];
      } else {
        json << "null";  // run.py treats a missing value as a failed metric
      }
    }
    json << "]}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
