// OSEK-NM state machine (psme::car::nm): frame codec, ring formation and
// token circulation, and the protocol-level security counters the
// campaign engine reads — impersonation re-assertion, sleep refusal,
// starvation-driven limp home and its recovery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "can/bus.h"
#include "car/network_mgmt.h"

namespace psme::car::nm {
namespace {

using namespace std::chrono_literals;

TEST(NmCodec, FrameRoundTrip) {
  const can::Frame frame = make_nm_frame(5, 7, kOpRing | kSleepInd);
  EXPECT_EQ(frame.id().raw(), kNmBase | 5u);
  const auto info = parse_nm_frame(frame);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->source, 5);
  EXPECT_EQ(info->dest, 7);
  EXPECT_EQ(info->opcode, kOpRing | kSleepInd);
}

TEST(NmCodec, RejectsOutOfWindowAndMalformed) {
  EXPECT_THROW((void)make_nm_frame(kMaxAddress + 1, 0, kOpAlive),
               std::out_of_range);
  EXPECT_THROW((void)make_nm_frame(0, kMaxAddress + 1, kOpAlive),
               std::out_of_range);
  EXPECT_FALSE(parse_nm_frame(can::make_frame(0x100, {0, kOpRing})));
  // Inside the NM id window but payload too short to carry dest+opcode.
  EXPECT_FALSE(parse_nm_frame(can::make_frame(kNmBase | 3, {0})));
}

/// A bare bus with `count` stations at addresses 1..count, started with a
/// small stagger, plus a raw injection port for forged traffic.
struct NmWorld {
  sim::Scheduler sched;
  can::Bus bus{sched};
  std::vector<std::unique_ptr<NmParticipant>> stations;
  std::vector<can::Port*> ports;
  can::Port* injector = nullptr;

  explicit NmWorld(std::uint8_t count, NmOptions options = {}) {
    for (std::uint8_t address = 1; address <= count; ++address) {
      can::Port& port = bus.attach("nm-" + std::to_string(address));
      ports.push_back(&port);
      stations.push_back(
          std::make_unique<NmParticipant>(sched, port, address, options));
    }
    injector = &bus.attach("forger");
    for (auto& station : stations) {
      NmParticipant* raw = station.get();
      sched.schedule_in(std::chrono::milliseconds{5 * raw->address()},
                        [raw] { raw->start(); });
    }
  }

  NmParticipant& at(std::uint8_t address) {
    return *stations.at(address - 1u);
  }
};

TEST(NmRing, PeerlessStationDegradesToLimpHome) {
  // The bus never echoes a station's own frames, so a one-member ring
  // cannot sustain itself: with nobody answering, supervision must walk
  // the station into limp home rather than leave it wedged in login.
  NmWorld world(1);
  world.sched.run_until(sim::SimTime{3s});
  EXPECT_EQ(world.at(1).state(), NmState::kLimpHome);
  EXPECT_GE(world.at(1).stats().limp_home_entries, 1u);
  EXPECT_GE(world.at(1).stats().silence_timeouts, 1u);
  EXPECT_EQ(world.at(1).stats().tokens_received, 0u);
}

TEST(NmRing, RingFormsAndTokenCirculates) {
  NmWorld world(3);
  world.sched.run_until(sim::SimTime{2s});
  for (std::uint8_t address = 1; address <= 3; ++address) {
    SCOPED_TRACE(static_cast<int>(address));
    EXPECT_EQ(world.at(address).state(), NmState::kOn);
    EXPECT_GT(world.at(address).stats().tokens_received, 2u);
    EXPECT_GT(world.at(address).stats().ring_sent, 2u);
    EXPECT_EQ(world.at(address).members().size(), 3u);
    EXPECT_EQ(world.at(address).stats().limp_home_entries, 0u);
  }
}

TEST(NmSecurity, ImpersonationTriggersReassertion) {
  NmWorld world(2);
  world.sched.run_until(sim::SimTime{1s});
  ASSERT_EQ(world.at(1).state(), NmState::kOn);
  const std::uint64_t alive_before = world.at(1).stats().alive_sent;

  // Forged frames under station 1's address: the bus never echoes a
  // station's own frames, so station 1 must treat them as impersonation
  // and answer with alive.
  for (int i = 0; i < 3; ++i) {
    world.sched.schedule_in(std::chrono::milliseconds{i * 20}, [&world] {
      world.injector->submit(make_nm_frame(1, 2, kOpRing));
    });
  }
  world.sched.run_until(world.sched.now() + 500ms);

  EXPECT_EQ(world.at(1).stats().impersonations_detected, 3u);
  EXPECT_GT(world.at(1).stats().alive_sent, alive_before);
  EXPECT_EQ(world.at(1).state(), NmState::kOn);
}

TEST(NmSecurity, SleepAckRefusedWhileActive) {
  NmWorld world(2);
  world.sched.run_until(sim::SimTime{1s});

  // Forged "everyone sleep now" from a phantom station: neither real
  // station is ready, so both must refuse and stay on the ring.
  world.injector->submit(
      make_nm_frame(kMaxAddress, 1, kOpRing | kSleepInd | kSleepAck));
  world.sched.run_until(world.sched.now() + 500ms);

  for (std::uint8_t address = 1; address <= 2; ++address) {
    SCOPED_TRACE(static_cast<int>(address));
    EXPECT_GE(world.at(address).stats().sleep_refusals, 1u);
    EXPECT_EQ(world.at(address).stats().sleeps_entered, 0u);
    EXPECT_EQ(world.at(address).state(), NmState::kOn);
  }
}

TEST(NmRing, NegotiatedSleepWhenAllReady) {
  NmOptions options;
  options.ready_to_sleep = true;
  NmWorld world(2, options);
  world.sched.run_until(sim::SimTime{3s});

  for (std::uint8_t address = 1; address <= 2; ++address) {
    SCOPED_TRACE(static_cast<int>(address));
    EXPECT_EQ(world.at(address).state(), NmState::kSleep);
    EXPECT_EQ(world.at(address).stats().sleeps_entered, 1u);
    EXPECT_EQ(world.at(address).stats().sleep_refusals, 0u);
  }
}

TEST(NmRing, SleepingRingWakesOnNmTraffic) {
  NmOptions options;
  options.ready_to_sleep = true;
  NmWorld world(2, options);
  world.sched.run_until(sim::SimTime{3s});
  ASSERT_EQ(world.at(1).state(), NmState::kSleep);

  world.at(1).set_ready_to_sleep(false);
  world.at(2).set_ready_to_sleep(false);
  world.injector->submit(make_nm_frame(3, 3, kOpAlive));
  world.sched.run_until(world.sched.now() + 1s);

  EXPECT_EQ(world.at(1).state(), NmState::kOn);
  EXPECT_GE(world.at(1).stats().wakeups, 1u);
}

TEST(NmSupervision, StarvedStationEntersLimpHomeAndRecovers) {
  NmOptions options;
  options.token_wait = 200ms;
  options.limp_limit = 2;
  NmWorld world(2, options);
  world.sched.run_until(sim::SimTime{1s});
  ASSERT_EQ(world.at(1).state(), NmState::kOn);

  // Kill station 2's port: NM traffic from it stops, station 1 is never
  // addressed again, and supervision must degrade it to limp home.
  world.ports[1]->disconnect();
  world.sched.run_until(world.sched.now() + 2s);
  EXPECT_EQ(world.at(1).state(), NmState::kLimpHome);
  EXPECT_GE(world.at(1).stats().limp_home_entries, 1u);
  EXPECT_GE(world.at(1).stats().skipped_detections +
                world.at(1).stats().silence_timeouts,
            options.limp_limit);

  // A token addressed to the degraded station recovers it into the ring.
  // (Assert before the still-dead ring can starve it back into limp home:
  // with token_wait 200ms and limp_limit 2 the re-entry needs >400ms.)
  world.injector->submit(make_nm_frame(2, 1, kOpRing));
  world.sched.run_until(world.sched.now() + 300ms);
  EXPECT_EQ(world.at(1).state(), NmState::kOn);
  EXPECT_EQ(world.at(1).stats().limp_home_recoveries, 1u);
}

TEST(NmCodec, StateNamesRoundTrip) {
  EXPECT_EQ(to_string(NmState::kOff), "off");
  EXPECT_EQ(to_string(NmState::kLogin), "login");
  EXPECT_EQ(to_string(NmState::kOn), "on");
  EXPECT_EQ(to_string(NmState::kLimpHome), "limp-home");
  EXPECT_EQ(to_string(NmState::kSleep), "sleep");
}

}  // namespace
}  // namespace psme::car::nm
