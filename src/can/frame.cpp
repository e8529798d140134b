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

/// The bits of one frame's stuffed region (SOF through CRC), packed
/// MSB-first on the stack: whole bytes in `bytes`, the last `tail_bits`
/// (< 8) bits in the low end of `tail`. 15 bytes hold the longest frame
/// (118 bits: 39-bit extended header, 64 data bits, 15 CRC bits).
struct PackedBits {
  std::array<std::uint8_t, 15> bytes{};
  std::size_t byte_count = 0;
  std::uint32_t tail = 0;
  unsigned tail_bits = 0;

  /// Appends the low `width` (<= 18) bits of `value`, MSB first.
  void push(std::uint32_t value, unsigned width) noexcept {
    tail = (tail << width) | (value & ((1u << width) - 1));
    tail_bits += width;
    while (tail_bits >= 8) {
      tail_bits -= 8;
      bytes[byte_count++] = static_cast<std::uint8_t>(tail >> tail_bits);
    }
    tail &= (1u << tail_bits) - 1;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return byte_count * 8 + tail_bits;
  }
  /// Tail bit `i`, counted from the first (most significant) one.
  [[nodiscard]] unsigned tail_bit(unsigned i) const noexcept {
    return (tail >> (tail_bits - 1 - i)) & 1u;
  }
};

/// SOF through the last data bit, as transmitted.
void pack_header_and_data(const Frame& frame, PackedBits& bits) noexcept {
  const CanId id = frame.id();
  const std::uint32_t rtr = frame.is_remote() ? 1 : 0;
  if (!id.is_extended()) {
    // SOF (dominant), 11 id bits, RTR, IDE = 0 (standard), r0.
    bits.push((id.raw() << 3) | (rtr << 2), 15);
  } else {
    // SOF, 11 base id bits, SRR and IDE (recessive), then the 18-bit id
    // extension, RTR, r1, r0.
    bits.push((((id.raw() >> 18) & 0x7FF) << 2) | 0b11, 14);
    bits.push(id.raw() & 0x3FFFF, 18);
    bits.push(rtr << 2, 3);
  }
  bits.push(frame.dlc(), 4);
  for (const std::uint8_t byte : frame.data()) bits.push(byte, 8);
}

/// ISO 11898-1 CRC: polynomial 0xC599 (x^15+x^14+x^10+x^8+x^7+x^4+x^3+1),
/// initial value 0, one input bit per step.
constexpr std::uint16_t crc15_step(std::uint16_t crc, unsigned bit) noexcept {
  const bool crc_next = (bit ^ ((crc >> 14) & 1u)) != 0;
  crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
  return crc_next ? static_cast<std::uint16_t>(crc ^ 0x4599) : crc;
}

/// kCrc15Table[i]: the register after shifting eight zero bits into
/// the state i << 7, so a whole input byte costs one lookup.
constexpr auto kCrc15Table = [] {
  std::array<std::uint16_t, 256> table{};
  for (unsigned i = 0; i < 256; ++i) {
    auto crc = static_cast<std::uint16_t>(i << 7);
    for (int bit = 0; bit < 8; ++bit) crc = crc15_step(crc, 0);
    table[i] = crc;
  }
  return table;
}();

/// CRC-15 over SOF through the last data bit.
std::uint16_t crc15_of(const PackedBits& bits) noexcept {
  std::uint16_t crc = 0;
  for (std::size_t i = 0; i < bits.byte_count; ++i) {
    const unsigned index = ((crc >> 7) ^ bits.bytes[i]) & 0xFFu;
    crc = static_cast<std::uint16_t>(((crc << 8) & 0x7FFF) ^ kCrc15Table[index]);
  }
  for (unsigned i = 0; i < bits.tail_bits; ++i) {
    crc = crc15_step(crc, bits.tail_bit(i));
  }
  return crc;
}

// Bit stuffing: after five consecutive equal bits a stuff bit of the
// opposite polarity is inserted, and it starts the next run. The state
// is the previous bit and its run length (1..4), packed as
// (bit << 2) | (run - 1), or kStuffStart before the first bit.
constexpr unsigned kStuffStart = 8;
constexpr unsigned kStuffStates = 9;

struct StuffStep {
  unsigned state;
  unsigned stuffed;
};

constexpr StuffStep stuff_step(unsigned state, unsigned bit) noexcept {
  if (state == kStuffStart || (state >> 2) != bit) return {bit << 2, 0};
  const unsigned run = (state & 3u) + 2;
  if (run == 5) return {(bit ^ 1u) << 2, 1};
  return {(bit << 2) | (run - 1), 0};
}

/// kStuffTable[state * 256 + byte]: the state after the byte's eight
/// bits in the low nibble, the stuff bits they cost (0..2) above it.
constexpr auto kStuffTable = [] {
  std::array<std::uint8_t, kStuffStates * 256> table{};
  for (unsigned start = 0; start < kStuffStates; ++start) {
    for (unsigned byte = 0; byte < 256; ++byte) {
      StuffStep total{start, 0};
      for (int bit = 7; bit >= 0; --bit) {
        const StuffStep step = stuff_step(total.state, (byte >> bit) & 1u);
        total = {step.state, total.stuffed + step.stuffed};
      }
      table[start * 256 + byte] =
          static_cast<std::uint8_t>(total.state | (total.stuffed << 4));
    }
  }
  return table;
}();

}  // namespace

std::uint16_t Frame::crc15() const noexcept {
  PackedBits bits;
  pack_header_and_data(*this, bits);
  return crc15_of(bits);
}

std::size_t Frame::wire_bits() const noexcept {
  // Stuffing applies from SOF through the CRC sequence.
  PackedBits bits;
  pack_header_and_data(*this, bits);
  bits.push(crc15_of(bits), 15);

  std::size_t stuffed = 0;
  unsigned state = kStuffStart;
  for (std::size_t i = 0; i < bits.byte_count; ++i) {
    const std::uint8_t entry = kStuffTable[state * 256 + bits.bytes[i]];
    state = entry & 0xFu;
    stuffed += entry >> 4;
  }
  for (unsigned i = 0; i < bits.tail_bits; ++i) {
    const StuffStep step = stuff_step(state, bits.tail_bit(i));
    state = step.state;
    stuffed += step.stuffed;
  }

  // CRC delimiter (1) + ACK slot (1) + ACK delimiter (1) + EOF (7)
  // + interframe space (3); none of these are subject to stuffing.
  return bits.size() + stuffed + 1 + 1 + 1 + 7 + 3;
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
