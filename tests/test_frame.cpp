// Unit tests for CAN frames, identifiers, CRC-15 and wire-length
// computation (psme::can).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "can/frame.h"
#include "sim/rng.h"

namespace psme::can {
namespace {

// Reference bitstream: the original std::vector<bool> construction of
// CRC-15 and the stuffed wire length, kept verbatim as an oracle for the
// byte-packed, table-driven implementation.
namespace reference {

void push_bits(std::vector<bool>& bits, std::uint32_t value, int width) {
  for (int i = width - 1; i >= 0; --i) {
    bits.push_back(((value >> i) & 1u) != 0);
  }
}

void append_bitstream(const Frame& f, std::vector<bool>& bits) {
  bits.push_back(false);
  if (!f.id().is_extended()) {
    push_bits(bits, f.id().raw(), 11);
    bits.push_back(f.is_remote());
    bits.push_back(false);
    bits.push_back(false);
  } else {
    push_bits(bits, (f.id().raw() >> 18) & 0x7FF, 11);
    bits.push_back(true);
    bits.push_back(true);
    push_bits(bits, f.id().raw() & 0x3FFFF, 18);
    bits.push_back(f.is_remote());
    bits.push_back(false);
    bits.push_back(false);
  }
  push_bits(bits, f.dlc(), 4);
  for (const std::uint8_t byte : f.data()) push_bits(bits, byte, 8);
}

std::uint16_t crc15(const Frame& f) {
  std::vector<bool> bits;
  append_bitstream(f, bits);
  std::uint16_t crc = 0;
  for (const bool bit : bits) {
    const bool crc_next = bit ^ (((crc >> 14) & 1u) != 0);
    crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
    if (crc_next) crc ^= 0x4599;
  }
  return crc;
}

std::size_t wire_bits(const Frame& f) {
  std::vector<bool> bits;
  append_bitstream(f, bits);
  push_bits(bits, crc15(f), 15);
  std::size_t stuffed = 0;
  int run = 0;
  bool prev = false;
  bool first = true;
  for (bool b : bits) {
    if (!first && b == prev) {
      ++run;
      if (run == 5) {
        ++stuffed;
        prev = !b;
        run = 1;
        continue;
      }
    } else {
      run = 1;
    }
    prev = b;
    first = false;
  }
  return bits.size() + stuffed + 1 + 1 + 1 + 7 + 3;
}

}  // namespace reference

/// A data frame (seeded payload) or an RTR frame of `dlc` on `id`.
Frame seeded_frame(CanId id, std::uint8_t dlc, bool remote, sim::Rng& rng) {
  if (remote) return Frame::remote(id, dlc);
  std::array<std::uint8_t, Frame::kMaxData> data{};
  for (std::uint8_t i = 0; i < dlc; ++i) {
    data[i] = static_cast<std::uint8_t>(rng.uniform(0, 0xFF));
  }
  return Frame(id, std::span<const std::uint8_t>(data.data(), dlc));
}

TEST(CanId, StandardBounds) {
  EXPECT_NO_THROW(CanId::standard(0));
  EXPECT_NO_THROW(CanId::standard(0x7FF));
  EXPECT_THROW(CanId::standard(0x800), std::out_of_range);
}

TEST(CanId, ExtendedBounds) {
  EXPECT_NO_THROW(CanId::extended(0));
  EXPECT_NO_THROW(CanId::extended(0x1FFFFFFF));
  EXPECT_THROW(CanId::extended(0x20000000), std::out_of_range);
}

TEST(CanId, LowerIdWinsArbitration) {
  EXPECT_LT(CanId::standard(0x100).arbitration_key(),
            CanId::standard(0x200).arbitration_key());
  EXPECT_LT(CanId::extended(0x100).arbitration_key(),
            CanId::extended(0x200).arbitration_key());
}

TEST(CanId, StandardBeatsExtendedWithSameBaseId) {
  // IDE bit is dominant (0) for standard frames, so a standard frame wins
  // against an extended frame sharing the 11 base bits.
  const CanId std_id = CanId::standard(0x123);
  const CanId ext_id = CanId::extended((0x123u << 18) | 0x5);
  EXPECT_LT(std_id.arbitration_key(), ext_id.arbitration_key());
}

TEST(CanId, ExtendedWithLowerBaseBeatsStandardWithHigherBase) {
  const CanId ext_id = CanId::extended(0x100u << 18);
  const CanId std_id = CanId::standard(0x101);
  EXPECT_LT(ext_id.arbitration_key(), std_id.arbitration_key());
}

TEST(CanId, ToStringMarksExtended) {
  EXPECT_EQ(CanId::standard(0x123).to_string(), "0x123");
  EXPECT_EQ(CanId::extended(0x123).to_string(), "0x123x");
}

TEST(Frame, DataFrameBasics) {
  const std::array<std::uint8_t, 3> data{0xDE, 0xAD, 0xBE};
  const Frame f(CanId::standard(0x42), data);
  EXPECT_EQ(f.dlc(), 3);
  EXPECT_FALSE(f.is_remote());
  EXPECT_EQ(f.data().size(), 3u);
  EXPECT_EQ(f.byte0(), 0xDE);
}

TEST(Frame, RejectsOversizedPayload) {
  const std::array<std::uint8_t, 9> data{};
  EXPECT_THROW(Frame(CanId::standard(1), data), std::length_error);
}

TEST(Frame, RemoteFrameHasNoData) {
  const Frame f = Frame::remote(CanId::standard(0x42), 4);
  EXPECT_TRUE(f.is_remote());
  EXPECT_EQ(f.dlc(), 4);
  EXPECT_TRUE(f.data().empty());
  EXPECT_EQ(f.byte0(), 0);
  EXPECT_THROW(Frame::remote(CanId::standard(1), 9), std::length_error);
}

TEST(Frame, EqualityIsValueBased) {
  const Frame a = make_frame(0x100, {1, 2});
  const Frame b = make_frame(0x100, {1, 2});
  const Frame c = make_frame(0x100, {1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Frame, CrcChangesWithAnyBit) {
  const Frame base = make_frame(0x100, {0x00});
  const Frame diff_data = make_frame(0x100, {0x01});
  const Frame diff_id = make_frame(0x101, {0x00});
  EXPECT_NE(base.crc15(), diff_data.crc15());
  EXPECT_NE(base.crc15(), diff_id.crc15());
}

TEST(Frame, CrcIs15Bits) {
  for (std::uint32_t id = 0; id < 64; ++id) {
    const Frame f = make_frame(id, {static_cast<std::uint8_t>(id)});
    EXPECT_LT(f.crc15(), 0x8000);
  }
}

TEST(Frame, CrcDeterministic) {
  const Frame a = make_frame(0x2A7, {9, 8, 7, 6});
  const Frame b = make_frame(0x2A7, {9, 8, 7, 6});
  EXPECT_EQ(a.crc15(), b.crc15());
}

TEST(Frame, WireBitsWithinProtocolBounds) {
  // Standard data frame, n data bytes: minimum unstuffed length is
  // 1+11+1+1+1+4+8n+15 (+delims/ack/eof/ifs = 13); stuffing adds at most
  // ~20% of the stuffable region.
  for (std::uint8_t n = 0; n <= 8; ++n) {
    std::vector<std::uint8_t> data(n, 0x55);  // alternating bits: no stuffing
    const Frame f(CanId::standard(0x555), data);
    const std::size_t unstuffed = 34 + 8u * n + 13;
    EXPECT_GE(f.wire_bits(), unstuffed);
    EXPECT_LE(f.wire_bits(), unstuffed + (34 + 8u * n) / 4 + 1);
  }
}

TEST(Frame, EveryStandardIdMatchesBitstreamOracle) {
  sim::Rng rng(0xF4A3);
  for (std::uint32_t raw = 0; raw <= CanId::kMaxStandard; ++raw) {
    for (std::uint8_t dlc = 0; dlc <= Frame::kMaxData; ++dlc) {
      for (const bool remote : {false, true}) {
        const Frame f = seeded_frame(CanId::standard(raw), dlc, remote, rng);
        ASSERT_EQ(f.crc15(), reference::crc15(f)) << f.to_string();
        ASSERT_EQ(f.wire_bits(), reference::wire_bits(f)) << f.to_string();
      }
    }
  }
}

TEST(Frame, SeededExtendedIdsMatchBitstreamOracle) {
  sim::Rng rng(0xE47D);
  for (int i = 0; i < 10'000; ++i) {
    const auto raw =
        static_cast<std::uint32_t>(rng.uniform(0, CanId::kMaxExtended));
    const auto dlc = static_cast<std::uint8_t>(rng.uniform(0, Frame::kMaxData));
    const bool remote = rng.chance(0.5);
    const Frame f = seeded_frame(CanId::extended(raw), dlc, remote, rng);
    ASSERT_EQ(f.crc15(), reference::crc15(f)) << f.to_string();
    ASSERT_EQ(f.wire_bits(), reference::wire_bits(f)) << f.to_string();
  }
  // The longest stuffed region: extended id, 8 data bytes of one level.
  for (const std::uint8_t fill : {0x00, 0xFF}) {
    const std::array<std::uint8_t, 8> data{fill, fill, fill, fill,
                                           fill, fill, fill, fill};
    for (const std::uint32_t raw : {0u, CanId::kMaxExtended}) {
      const Frame f(CanId::extended(raw), data);
      EXPECT_EQ(f.crc15(), reference::crc15(f)) << f.to_string();
      EXPECT_EQ(f.wire_bits(), reference::wire_bits(f)) << f.to_string();
    }
  }
}

TEST(Frame, AllZeroPayloadTriggersStuffing) {
  const std::vector<std::uint8_t> zeros(8, 0x00);
  const std::vector<std::uint8_t> alt(8, 0x55);
  const Frame stuffy(CanId::standard(0x000), zeros);
  const Frame smooth(CanId::standard(0x555), alt);
  EXPECT_GT(stuffy.wire_bits(), smooth.wire_bits());
}

TEST(Frame, ExtendedFrameLongerThanStandard) {
  const std::array<std::uint8_t, 4> data{1, 2, 3, 4};
  const Frame std_f(CanId::standard(0x123), data);
  const Frame ext_f(CanId::extended(0x123), data);
  EXPECT_GT(ext_f.wire_bits(), std_f.wire_bits());
}

TEST(Frame, ToStringShowsIdAndPayload) {
  const Frame f = make_frame(0x1A0, {0xDE, 0xAD});
  const std::string s = f.to_string();
  EXPECT_NE(s.find("0x1A0"), std::string::npos);
  EXPECT_NE(s.find("de ad"), std::string::npos);
  const Frame r = Frame::remote(CanId::standard(0x1A0), 2);
  EXPECT_NE(r.to_string().find("RTR"), std::string::npos);
}

TEST(MakeFrame, BuildsStandardFrame) {
  const Frame f = make_frame(0x123, {1, 2, 3});
  EXPECT_EQ(f.id().raw(), 0x123u);
  EXPECT_FALSE(f.id().is_extended());
  EXPECT_EQ(f.dlc(), 3);
}

// Property sweep: arbitration key ordering must agree with raw-id ordering
// within a single format.
class ArbitrationOrderProperty
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(ArbitrationOrderProperty, KeyOrderMatchesIdOrder) {
  const auto [lo, hi] = GetParam();
  ASSERT_LT(lo, hi);
  EXPECT_LT(CanId::standard(lo).arbitration_key(),
            CanId::standard(hi).arbitration_key());
  EXPECT_LT(CanId::extended(lo).arbitration_key(),
            CanId::extended(hi).arbitration_key());
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ArbitrationOrderProperty,
    ::testing::Values(std::make_pair(0u, 1u), std::make_pair(1u, 2u),
                      std::make_pair(0x0FFu, 0x100u),
                      std::make_pair(0x3FFu, 0x400u),
                      std::make_pair(0x7FEu, 0x7FFu),
                      std::make_pair(0x123u, 0x124u)));

}  // namespace
}  // namespace psme::can
