#include "can/frame.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace psme::can {

CanId CanId::standard(std::uint32_t raw) {
  if (raw > kMaxStandard) {
    throw std::out_of_range("CanId::standard: id exceeds 11 bits");
  }
  return CanId(raw, /*extended=*/false);
}

CanId CanId::extended(std::uint32_t raw) {
  if (raw > kMaxExtended) {
    throw std::out_of_range("CanId::extended: id exceeds 29 bits");
  }
  return CanId(raw, /*extended=*/true);
}

std::uint64_t CanId::arbitration_key() const noexcept {
  return arbitration_key_constexpr();
}

std::string CanId::to_string() const {
  std::ostringstream out;
  out << "0x" << std::hex << std::uppercase << raw_;
  if (extended_) out << "x";  // suffix marks extended format
  return out.str();
}

Frame::Frame(CanId id, std::span<const std::uint8_t> data) : id_(id) {
  if (data.size() > kMaxData) {
    throw std::length_error("Frame: classic CAN carries at most 8 data bytes");
  }
  dlc_ = static_cast<std::uint8_t>(data.size());
  std::copy(data.begin(), data.end(), data_.begin());
}

Frame Frame::remote(CanId id, std::uint8_t dlc) {
  if (dlc > kMaxData) {
    throw std::length_error("Frame::remote: dlc exceeds 8");
  }
  Frame f;
  f.id_ = id;
  f.rtr_ = true;
  f.dlc_ = dlc;
  return f;
}

namespace {

/// The bits of one frame's stuffed region (SOF through CRC), filled once
/// per call on the stack. 118 = the longest frame: 39-bit extended
/// header, 64 data bits, 15 CRC bits.
struct BitBuffer {
  std::array<std::uint8_t, 118> bit{};
  std::size_t size = 0;

  void push(bool b) noexcept { bit[size++] = b ? 1 : 0; }
  void push(std::uint32_t value, int width) noexcept {
    for (int i = width - 1; i >= 0; --i) push(((value >> i) & 1u) != 0);
  }
};

/// SOF through the last data bit, as transmitted.
void fill_header_and_data(const Frame& frame, BitBuffer& bits) noexcept {
  const CanId id = frame.id();
  const bool rtr = frame.is_remote();
  bits.push(false);  // SOF (dominant)
  if (!id.is_extended()) {
    bits.push(id.raw(), 11);
    bits.push(rtr);    // RTR
    bits.push(false);  // IDE = 0 (standard)
    bits.push(false);  // r0
  } else {
    bits.push((id.raw() >> 18) & 0x7FF, 11);  // base id
    bits.push(true);                          // SRR (recessive)
    bits.push(true);                          // IDE = 1 (extended)
    bits.push(id.raw() & 0x3FFFF, 18);        // id extension
    bits.push(rtr);                           // RTR
    bits.push(false);                         // r1
    bits.push(false);                         // r0
  }
  bits.push(frame.dlc(), 4);
  for (const std::uint8_t byte : frame.data()) bits.push(byte, 8);
}

/// ISO 11898-1 CRC: polynomial 0xC599 (x^15+x^14+x^10+x^8+x^7+x^4+x^3+1),
/// computed over SOF through the last data bit, initial value 0.
std::uint16_t crc15_of(const BitBuffer& bits) noexcept {
  std::uint16_t crc = 0;
  for (std::size_t i = 0; i < bits.size; ++i) {
    const bool crc_next = (bits.bit[i] != 0) ^ (((crc >> 14) & 1u) != 0);
    crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
    if (crc_next) crc ^= 0x4599;
  }
  return crc;
}

}  // namespace

std::uint16_t Frame::crc15() const noexcept {
  BitBuffer bits;
  fill_header_and_data(*this, bits);
  return crc15_of(bits);
}

std::size_t Frame::wire_bits() const noexcept {
  // Stuffing applies from SOF through the CRC sequence: after five
  // consecutive equal bits a stuff bit of opposite polarity is inserted.
  BitBuffer bits;
  fill_header_and_data(*this, bits);
  bits.push(crc15_of(bits), 15);

  std::size_t stuffed = 0;
  int run = 0;
  std::uint8_t prev = 2;  // no previous bit yet
  for (std::size_t i = 0; i < bits.size; ++i) {
    run = bits.bit[i] == prev ? run + 1 : 1;
    prev = bits.bit[i];
    if (run == 5) {
      ++stuffed;  // stuff bit of opposite polarity: the new "previous"
      prev ^= 1;
      run = 1;
    }
  }

  // CRC delimiter (1) + ACK slot (1) + ACK delimiter (1) + EOF (7)
  // + interframe space (3); none of these are subject to stuffing.
  return bits.size + stuffed + 1 + 1 + 1 + 7 + 3;
}

std::string Frame::to_string() const {
  std::ostringstream out;
  out << "id=" << id_.to_string();
  if (rtr_) {
    out << " RTR dlc=" << static_cast<int>(dlc_);
    return out.str();
  }
  out << " dlc=" << static_cast<int>(dlc_) << " [";
  for (std::uint8_t i = 0; i < dlc_; ++i) {
    if (i != 0) out << ' ';
    out << std::hex << std::setw(2) << std::setfill('0')
        << static_cast<int>(data_[i]);
  }
  out << ']';
  return out.str();
}

Frame make_frame(std::uint32_t standard_id,
                 std::initializer_list<std::uint8_t> bytes) {
  std::vector<std::uint8_t> data(bytes);
  return Frame(CanId::standard(standard_id),
               std::span<const std::uint8_t>(data));
}

}  // namespace psme::can
