// The quarantine response layer (psme::car::QuarantineController): the
// escalation ladder reacts to real offenders, and — the property that
// makes the layer shippable — it NEVER denies legitimate Table-I traffic:
// clean runs take no action, allowlisted ids are never blocked, and
// isolation cuts the spoofer's port, not the id owner's.
#include <gtest/gtest.h>

#include <string>

#include "attack/attacker.h"
#include "car/quarantine.h"
#include "car/vehicle.h"
#include "monitor/anomaly.h"

namespace psme::car {
namespace {

using namespace std::chrono_literals;

struct QuarantineWorld {
  sim::Scheduler sched;
  Vehicle vehicle;
  monitor::FrameRateMonitor monitor;
  std::unique_ptr<QuarantineController> quarantine;

  explicit QuarantineWorld(QuarantineOptions options = {})
      : vehicle(sched), monitor(sched) {
    can::Port& tap = vehicle.bus().attach("ids-tap");
    tap.set_sink(&monitor);
    monitor.start_training();
    sched.run_until(sched.now() + 3s);
    monitor.start_detection();
    quarantine = make_vehicle_quarantine(vehicle, monitor, options);
  }

  [[nodiscard]] std::size_t port_index(const std::string& name) {
    for (std::size_t i = 0; i < vehicle.bus().port_count(); ++i) {
      if (vehicle.bus().port(i).name() == name) return i;
    }
    ADD_FAILURE() << "no port named " << name;
    return 0;
  }

  [[nodiscard]] std::uint64_t total_rx_quarantined() {
    std::uint64_t total =
        vehicle.gateway().controller().stats().rx_quarantined;
    for (const std::string& name : vehicle.node_names()) {
      total += vehicle.node(name)->controller().stats().rx_quarantined;
    }
    return total;
  }
};

TEST(Quarantine, CleanTrafficTakesNoAction) {
  QuarantineWorld world;
  world.quarantine->start();
  world.sched.run_until(world.sched.now() + 3s);

  const QuarantineStats& stats = world.quarantine->stats();
  EXPECT_EQ(stats.alerts_consumed, 0u);
  EXPECT_EQ(stats.ids_blocked, 0u);
  EXPECT_EQ(stats.ports_isolated, 0u);
  EXPECT_EQ(stats.escalations, 0u);
  EXPECT_TRUE(world.quarantine->events().empty());
  EXPECT_TRUE(world.quarantine->blocked_ids().empty());
  EXPECT_EQ(world.total_rx_quarantined(), 0u);
  EXPECT_EQ(world.vehicle.mode(), CarMode::kNormal);
}

TEST(Quarantine, UnknownFloodIsolatesTheAttackerPortOnly) {
  QuarantineWorld world;
  world.quarantine->start();

  attack::OutsideAttacker attacker(
      world.sched, world.vehicle.attach_attacker("mallory"));
  attacker.inject_repeated(can::make_frame(0x001, {0xAA}), 400, 1ms);
  world.sched.run_until(world.sched.now() + 1s);

  const std::size_t mallory = world.port_index("mallory");
  ASSERT_EQ(world.quarantine->isolated_ports().size(), 1u);
  EXPECT_EQ(world.quarantine->isolated_ports()[0], mallory);
  EXPECT_FALSE(world.vehicle.bus().port(mallory).connected());
  // Every other port — components, gateway, tap — stays connected.
  for (std::size_t i = 0; i < world.vehicle.bus().port_count(); ++i) {
    if (i != mallory) {
      EXPECT_TRUE(world.vehicle.bus().port(i).connected())
          << world.vehicle.bus().port(i).name();
    }
  }
  EXPECT_TRUE(world.quarantine->blocked_ids().empty());
}

TEST(Quarantine, SpoofedLegitimateIdCutsTheSpooferNotTheOwner) {
  QuarantineWorld world;
  world.quarantine->start();

  // Storm a Table-I-allowed id. The id is shared with its real owner, so
  // the id-block rung is forbidden; attribution must name the spoofer.
  attack::OutsideAttacker attacker(
      world.sched, world.vehicle.attach_attacker("mallory"));
  attacker.inject_repeated(command_frame(msg::kSensorSpeed, 0xF0), 400, 1ms);
  world.sched.run_until(world.sched.now() + 1s);

  const std::size_t mallory = world.port_index("mallory");
  ASSERT_EQ(world.quarantine->isolated_ports().size(), 1u);
  EXPECT_EQ(world.quarantine->isolated_ports()[0], mallory);
  EXPECT_TRUE(
      world.vehicle.bus().port(world.port_index("sensors")).connected());
  // The allowlist held: storming a legitimate id never installed a block.
  EXPECT_TRUE(world.quarantine->blocked_ids().empty());
  EXPECT_EQ(world.quarantine->stats().ids_blocked, 0u);
  EXPECT_EQ(world.total_rx_quarantined(), 0u);
}

TEST(Quarantine, AllowlistedIdIsNeverBlockedEvenWithoutIsolation) {
  QuarantineWorld world;
  world.quarantine->start();

  attack::OutsideAttacker attacker(
      world.sched, world.vehicle.attach_attacker("mallory"));
  // Protect the attacker's port: isolation is now impossible, so the
  // controller is pushed toward the block rung — which the allowlist must
  // refuse for a Table-I id.
  world.quarantine->protect_port(world.port_index("mallory"));
  attacker.inject_repeated(command_frame(msg::kSensorSpeed, 0xF0), 400, 1ms);
  world.sched.run_until(world.sched.now() + 1s);

  EXPECT_EQ(world.quarantine->stats().ids_blocked, 0u);
  EXPECT_GE(world.quarantine->stats().allowlist_skips, 1u);
  EXPECT_TRUE(world.quarantine->blocked_ids().empty());
  EXPECT_EQ(world.total_rx_quarantined(), 0u);
  bool saw_skip = false;
  for (const QuarantineEvent& event : world.quarantine->events()) {
    EXPECT_NE(event.action, QuarantineAction::kIdBlocked);
    saw_skip = saw_skip || event.action == QuarantineAction::kAllowlistSkip;
  }
  EXPECT_TRUE(saw_skip);
}

TEST(Quarantine, EveryTableOneIdIsAllowlisted) {
  QuarantineWorld world;
  for (const AssetBinding& binding : asset_bindings()) {
    for (const std::uint32_t id : binding.command_ids) {
      EXPECT_TRUE(world.quarantine->is_allowed(id)) << id;
    }
    for (const std::uint32_t id : binding.status_ids) {
      EXPECT_TRUE(world.quarantine->is_allowed(id)) << id;
    }
  }
  EXPECT_TRUE(world.quarantine->is_allowed(msg::kModeChange));
  EXPECT_FALSE(world.quarantine->is_allowed(0x001));
}

TEST(Quarantine, UnattributableUnknownIdGetsAnExpiringBlock) {
  QuarantineWorld world;
  world.quarantine->start();

  // Two attackers sharing one unknown id at the same rate: no port clears
  // the dominance bar, so the controller falls through to an id block —
  // and the block must EXPIRE (graceful degradation, not permanence).
  attack::OutsideAttacker left(
      world.sched, world.vehicle.attach_attacker("mallory-left"));
  attack::OutsideAttacker right(
      world.sched, world.vehicle.attach_attacker("mallory-right"));
  left.inject_repeated(can::make_frame(0x234, {0x01}), 150, 2ms);
  right.inject_repeated(can::make_frame(0x234, {0x02}), 150, 2ms);
  world.sched.run_until(world.sched.now() + 400ms);

  EXPECT_GE(world.quarantine->stats().ids_blocked, 1u);
  EXPECT_TRUE(world.quarantine->isolated_ports().empty());
  EXPECT_GT(world.total_rx_quarantined(), 0u);

  // Past the attack and the block lifetime: the block has been released.
  world.sched.run_until(world.sched.now() + 2s);
  EXPECT_GE(world.quarantine->stats().blocks_expired, 1u);
  EXPECT_TRUE(world.quarantine->blocked_ids().empty());
}

TEST(Quarantine, PersistentAlertStormEscalatesToFailSafe) {
  QuarantineOptions options;
  options.escalate_after_alerts = 10;
  QuarantineWorld world(options);
  world.quarantine->start();

  // A fuzz spray across many unknown ids: each new id is one alert, and
  // no single id accumulates enough to be blocked — only escalation can
  // answer.
  attack::OutsideAttacker attacker(
      world.sched, world.vehicle.attach_attacker("mallory"));
  for (std::uint32_t probe = 0; probe < 24; ++probe) {
    const can::Frame frame = can::make_frame(0x600 + probe, {0x01});
    world.sched.schedule_in(std::chrono::milliseconds{probe * 10},
                            [&attacker, frame] { attacker.inject(frame); });
  }
  world.sched.run_until(world.sched.now() + 1s);

  EXPECT_EQ(world.quarantine->stats().escalations, 1u);
  EXPECT_EQ(world.vehicle.mode(), CarMode::kFailSafe);
  bool saw_escalation = false;
  for (const QuarantineEvent& event : world.quarantine->events()) {
    saw_escalation =
        saw_escalation || event.action == QuarantineAction::kEscalated;
  }
  EXPECT_TRUE(saw_escalation);
}

TEST(Quarantine, ActionNamesRoundTrip) {
  EXPECT_EQ(to_string(QuarantineAction::kIdBlocked), "id-blocked");
  EXPECT_EQ(to_string(QuarantineAction::kIdReleased), "id-released");
  EXPECT_EQ(to_string(QuarantineAction::kPortIsolated), "port-isolated");
  EXPECT_EQ(to_string(QuarantineAction::kAllowlistSkip), "allowlist-skip");
  EXPECT_EQ(to_string(QuarantineAction::kEscalated), "escalated");
}

}  // namespace
}  // namespace psme::car
