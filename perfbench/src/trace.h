// perfbench — benchmark-owned spans.
//
// The library has no timing hooks on the frame path, so the traced run
// builds its spans from public wiring points only: timing FrameSinks
// spliced between a bus port and whatever listened on it, and around the
// calls the benchmark itself makes. A span carries a name, start, end,
// its parent span and a group id (all spans of one bus frame share the
// scheduler-event id of the frame's delivery; policy phases get one
// group each). Spans stay in memory up to a cap and are written at exit;
// inclusive sums per span name are kept for every span, capped or not.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "can/channel.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kPortHpe,         // bus port -> HPE read path (HPE + everything behind it)
  kHpeController,   // HPE -> controller (controller, wire MAC, node handler)
  kPortController,  // bus port -> controller of a node without an HPE
  kPortTap,         // bus port -> the benchmark's IDS tap
  kMonitor,         // tap -> FrameRateMonitor::on_frame
  kPhase,           // one policy-path phase call
  kCount,
};

[[nodiscard]] inline const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::kPortHpe: return "port>hpe";
    case SpanName::kHpeController: return "hpe>controller";
    case SpanName::kPortController: return "port>controller";
    case SpanName::kPortTap: return "port>tap";
    case SpanName::kMonitor: return "tap>monitor";
    case SpanName::kPhase: return "phase";
    case SpanName::kCount: break;
  }
  return "?";
}

class Tracer {
 public:
  static constexpr std::size_t kSpanCap = 1 << 16;

  struct Span {
    std::uint64_t group = 0;
    std::int32_t parent = -1;
    SpanName name = SpanName::kPhase;
    std::string_view label;  // phase label (static strings only)
    double start_ns = 0.0;
    double end_ns = 0.0;
  };

  Tracer() : epoch_(Clock::now()) {}

  void set_group(std::uint64_t group) noexcept { group_ = group; }
  void reset_sums() noexcept { inclusive_ns_.fill(0.0); }

  /// Opens a span nested in the innermost open one.
  void open(SpanName name, std::string_view label = {}) {
    const std::int32_t parent = depth_ > 0 ? stack_[depth_ - 1] : -1;
    std::int32_t index = -1;
    if (spans_.size() < kSpanCap) {
      index = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(Span{group_, parent, name, label, 0.0, 0.0});
    }
    stack_[depth_++] = index;
    starts_[depth_ - 1] = Clock::now();
  }

  void close(SpanName name) {
    const Clock::time_point end = Clock::now();
    --depth_;
    const Clock::time_point start = starts_[depth_];
    const double ns = ns_between(start, end);
    inclusive_ns_[static_cast<std::size_t>(name)] += ns;
    const std::int32_t index = stack_[depth_];
    if (index >= 0) {
      spans_[static_cast<std::size_t>(index)].start_ns = ns_between(epoch_, start);
      spans_[static_cast<std::size_t>(index)].end_ns = ns_between(epoch_, end);
    }
  }

  [[nodiscard]] double inclusive_ns(SpanName name) const noexcept {
    return inclusive_ns_[static_cast<std::size_t>(name)];
  }

  /// Writes every kept span as CSV, one row per span.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index,group,name,label,parent,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%llu,%s,%.*s,%d,%.0f,%.0f\n", i,
                   static_cast<unsigned long long>(s.group), to_string(s.name),
                   static_cast<int>(s.label.size()), s.label.data(), s.parent,
                   s.start_ns, s.end_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  std::uint64_t group_ = 0;
  std::vector<Span> spans_;
  std::array<std::int32_t, 8> stack_{};
  std::array<Clock::time_point, 8> starts_{};
  int depth_ = 0;
  std::array<double, static_cast<std::size_t>(SpanName::kCount)> inclusive_ns_{};
};

/// RAII phase span; a no-op without a tracer.
class PhaseSpan {
 public:
  PhaseSpan(Tracer* tracer, std::string_view label) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(SpanName::kPhase, label);
  }
  ~PhaseSpan() {
    if (tracer_ != nullptr) tracer_->close(SpanName::kPhase);
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// A FrameSink spliced between a port (or HPE) and its listener: times
/// both the receive path and the transmit-completion path.
class TimedSink final : public psme::can::FrameSink {
 public:
  TimedSink(psme::can::FrameSink& next, Tracer& tracer, SpanName name)
      : next_(next), tracer_(tracer), name_(name) {}

  void on_frame(const psme::can::Frame& frame, psme::sim::SimTime at) override {
    tracer_.open(name_);
    next_.on_frame(frame, at);
    tracer_.close(name_);
  }
  void on_transmit_complete(const psme::can::Frame& frame, bool success,
                            psme::sim::SimTime at) override {
    tracer_.open(name_);
    next_.on_transmit_complete(frame, success, at);
    tracer_.close(name_);
  }

 private:
  psme::can::FrameSink& next_;
  Tracer& tracer_;
  SpanName name_;
};

}  // namespace perfbench
