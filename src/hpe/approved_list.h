// psme::hpe — approved CAN message-ID lists.
//
// "Approved reading and writing list: It holds a list of approved CAN
// messages IDs that provides necessary information to the node ..."
// (paper Sec. V-B.2, Fig. 4). Hardware implementations hold such lists in
// CAM/LUT structures supporting exact entries and masked entries; both are
// modelled. An exact standard id is one bit of a 2048-bit LUT, an exact
// extended id a log n set lookup, and masked entries a linear scan (m)
// to mirror a realistic priority-encoded TCAM fallback.
#pragma once

#include <bitset>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "can/frame.h"

namespace psme::hpe {

/// A masked entry matches ids where (id & mask) == (value & mask).
struct MaskedEntry {
  std::uint32_t mask = 0;
  std::uint32_t value = 0;
  bool extended = false;

  [[nodiscard]] bool matches(can::CanId id) const noexcept {
    return id.is_extended() == extended && (id.raw() & mask) == (value & mask);
  }
};

class ApprovedIdList {
 public:
  /// Adds one exact standard/extended identifier.
  void add(can::CanId id);
  /// Adds a masked entry (family of identifiers).
  void add_masked(MaskedEntry entry);
  /// Removes an exact identifier; returns true if present.
  bool remove(can::CanId id);

  [[nodiscard]] bool contains(can::CanId id) const noexcept;
  [[nodiscard]] std::size_t exact_count() const noexcept { return exact_.size(); }
  [[nodiscard]] std::size_t masked_count() const noexcept { return masked_.size(); }
  [[nodiscard]] bool empty() const noexcept {
    return exact_.empty() && masked_.empty();
  }
  void clear() noexcept;

  /// One line per entry, for audit reports.
  [[nodiscard]] std::string to_string() const;

 private:
  // Exact ids stored as (raw | extended-bit<<31... ) — encode format in key.
  [[nodiscard]] static std::uint64_t key(can::CanId id) noexcept {
    return (static_cast<std::uint64_t>(id.is_extended()) << 32) | id.raw();
  }

  std::set<std::uint64_t> exact_;
  /// The standard ids of exact_, one bit each: contains() answers every
  /// standard frame with one bit test. add/remove/clear keep it in step.
  std::bitset<can::CanId::kMaxStandard + 1> standard_;
  std::vector<MaskedEntry> masked_;
};

}  // namespace psme::hpe
