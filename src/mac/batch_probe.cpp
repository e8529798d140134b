#include "mac/batch_probe.h"

namespace psme::mac::probe {

std::size_t find_slot_tail(const std::uint64_t* slots, std::size_t mask,
                           std::uint64_t key, std::size_t origin) noexcept {
  std::size_t i = (origin + 1) & mask;
  for (std::size_t steps = 1; steps <= mask; ++steps) {
    const std::uint64_t k = slots[i];
    if (k == key || k == 0) return i;
    i = (i + 1) & mask;
  }
  return origin;
}

}  // namespace psme::mac::probe
