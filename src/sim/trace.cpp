#include "sim/trace.h"

#include <sstream>

namespace psme::sim {

std::string_view to_string(TraceLevel level) noexcept {
  switch (level) {
    case TraceLevel::kDebug: return "DBG";
    case TraceLevel::kInfo: return "INFO";
    case TraceLevel::kSecurity: return "SEC";
    case TraceLevel::kError: return "ERR";
  }
  return "?";
}

void Trace::record(SimTime at, TraceLevel level, std::string component,
                   std::string message) {
  if (!records(level)) return;
  entries_.push_back(
      TraceEntry{at, level, std::move(component), std::move(message)});
}

std::size_t Trace::count(TraceLevel level) const noexcept {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.level == level) ++n;
  }
  return n;
}

std::size_t Trace::count_component(std::string_view component) const noexcept {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.component == component) ++n;
  }
  return n;
}

void Trace::for_each(std::string_view component,
                     const std::function<void(const TraceEntry&)>& fn) const {
  for (const auto& e : entries_) {
    if (component.empty() || e.component == component) fn(e);
  }
}

std::string Trace::render() const {
  std::ostringstream out;
  for (const auto& e : entries_) {
    out << "t=" << to_millis(e.at) << "ms [" << to_string(e.level) << "] "
        << e.component << ": " << e.message << '\n';
  }
  return out.str();
}

}  // namespace psme::sim
