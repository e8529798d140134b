// psme::sim — simulation trace log.
//
// A lightweight structured event log. Components record what happened and
// when; tests and benches query it afterwards. Severity levels let noisy
// frame-level detail be filtered from security-relevant decisions.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace psme::sim {

enum class TraceLevel : std::uint8_t {
  kDebug = 0,   // frame-level detail
  kInfo = 1,    // normal component activity
  kSecurity = 2,// policy decisions, blocked accesses, attacks
  kError = 3,   // protocol errors, integrity failures
};

[[nodiscard]] std::string_view to_string(TraceLevel level) noexcept;

/// One recorded trace entry.
struct TraceEntry {
  SimTime at{};
  TraceLevel level{TraceLevel::kInfo};
  std::string component;  // e.g. "can.bus", "hpe.ecu", "core.update"
  std::string message;
};

/// Append-only trace log with level filtering at record time.
class Trace {
 public:
  explicit Trace(TraceLevel min_level = TraceLevel::kInfo)
      : min_level_(min_level) {}

  /// Records an entry if records(level).
  void record(SimTime at, TraceLevel level, std::string component,
              std::string message);

  /// True when record() keeps `level`: ask before formatting a message.
  [[nodiscard]] bool records(TraceLevel level) const noexcept {
    return level >= min_level_;
  }

  [[nodiscard]] TraceLevel min_level() const noexcept { return min_level_; }
  void set_min_level(TraceLevel level) noexcept { min_level_ = level; }

  [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  void clear() noexcept { entries_.clear(); }

  /// Number of entries at exactly `level`.
  [[nodiscard]] std::size_t count(TraceLevel level) const noexcept;

  /// Number of entries whose component matches exactly.
  [[nodiscard]] std::size_t count_component(std::string_view component) const noexcept;

  /// Invokes `fn` for each entry matching the predicate arguments; empty
  /// component matches all.
  void for_each(std::string_view component,
                const std::function<void(const TraceEntry&)>& fn) const;

  /// Renders entries as "t=12.345ms [SEC ] can.bus: message" lines.
  [[nodiscard]] std::string render() const;

 private:
  TraceLevel min_level_;
  std::vector<TraceEntry> entries_;
};

}  // namespace psme::sim
