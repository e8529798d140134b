#include "hpe/approved_list.h"

#include <algorithm>
#include <sstream>

namespace psme::hpe {

void ApprovedIdList::add(can::CanId id) {
  exact_.insert(key(id));
  if (!id.is_extended()) standard_.set(id.raw());
}

void ApprovedIdList::add_masked(MaskedEntry entry) {
  masked_.push_back(entry);
}

bool ApprovedIdList::remove(can::CanId id) {
  if (!id.is_extended()) standard_.reset(id.raw());
  return exact_.erase(key(id)) != 0;
}

bool ApprovedIdList::contains(can::CanId id) const noexcept {
  const bool exact = id.is_extended() ? exact_.count(key(id)) != 0
                                      : standard_[id.raw()];
  if (exact) return true;
  return std::any_of(masked_.begin(), masked_.end(),
                     [id](const MaskedEntry& e) { return e.matches(id); });
}

void ApprovedIdList::clear() noexcept {
  exact_.clear();
  standard_.reset();
  masked_.clear();
}

std::string ApprovedIdList::to_string() const {
  std::ostringstream out;
  for (const auto k : exact_) {
    const bool extended = (k >> 32) != 0;
    const auto raw = static_cast<std::uint32_t>(k & 0xFFFFFFFFu);
    out << (extended ? "ext " : "std ") << "0x" << std::hex << raw << std::dec
        << '\n';
  }
  for (const auto& m : masked_) {
    out << (m.extended ? "ext " : "std ") << "value=0x" << std::hex << m.value
        << " mask=0x" << m.mask << std::dec << '\n';
  }
  return out.str();
}

}  // namespace psme::hpe
