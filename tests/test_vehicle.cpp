// Integration-level tests for the assembled vehicle (psme::car::Vehicle):
// topology, normal-operation traffic, mode handling, policy updates.
#include <gtest/gtest.h>

#include "car/vehicle.h"

namespace psme::car {
namespace {

using namespace std::chrono_literals;

TEST(Vehicle, NormalOperationTrafficFlows) {
  sim::Scheduler sched;
  Vehicle vehicle(sched);
  sched.run_until(sched.now() + 1s);

  // Sensors broadcast, the ECU tracks speed, the engine receives torque
  // demands, connectivity reports tracking, all without enforcement.
  EXPECT_GT(vehicle.bus().frames_delivered(), 100u);
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.engine().torque_commands(), 10u);
  EXPECT_GT(vehicle.connectivity().tracking_reports(), 1u);
  EXPECT_EQ(vehicle.infotainment().displayed_speed(), vehicle.sensors().speed());
  EXPECT_TRUE(vehicle.ecu().active());
  EXPECT_TRUE(vehicle.eps().active());
  EXPECT_TRUE(vehicle.engine().active());
}

TEST(Vehicle, NormalOperationUnharmedByEnforcement) {
  // The key transparency claim: with HPE enforcement on, legitimate
  // traffic still flows and no hazards appear.
  for (const bool content_rules : {false, true}) {
    sim::Scheduler sched;
    VehicleConfig config;
    config.enforcement = Enforcement::kHpe;
    config.hpe_content_rules = content_rules;
    Vehicle vehicle(sched, config);
    sched.run_until(sched.now() + 1s);

    EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
    EXPECT_GT(vehicle.engine().torque_commands(), 10u);
    EXPECT_GT(vehicle.connectivity().tracking_reports(), 1u);
    EXPECT_TRUE(vehicle.ecu().active());
    EXPECT_EQ(vehicle.ecu().disable_events(), 0u);
    EXPECT_EQ(vehicle.doors().unlocks_while_moving(), 0u);
  }
}

TEST(Vehicle, SoftwareFilterRegimeAlsoTransparent) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.enforcement = Enforcement::kSoftwareFilter;
  Vehicle vehicle(sched, config);
  sched.run_until(sched.now() + 1s);
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.engine().torque_commands(), 10u);
}

TEST(Vehicle, NodeLookupByName) {
  sim::Scheduler sched;
  Vehicle vehicle(sched);
  EXPECT_EQ(vehicle.node("ecu"), &vehicle.ecu());
  EXPECT_EQ(vehicle.node("doors"), &vehicle.doors());
  EXPECT_EQ(vehicle.node("ghost"), nullptr);
  EXPECT_EQ(vehicle.node_names().size(), 8u);
}

TEST(Vehicle, HpeAccessorsDependOnRegime) {
  sim::Scheduler s1, s2;
  Vehicle plain(s1);
  EXPECT_EQ(plain.hpe("ecu"), nullptr);

  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  Vehicle guarded(s2, config);
  ASSERT_NE(guarded.hpe("ecu"), nullptr);
  EXPECT_TRUE(guarded.hpe("ecu")->locked());
  EXPECT_EQ(guarded.hpe("ghost"), nullptr);
}

TEST(Vehicle, ModeChangePropagatesToNodesAndHpes) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  Vehicle vehicle(sched, config);
  sched.run_until(sched.now() + 100ms);

  vehicle.set_mode(CarMode::kRemoteDiagnostic);
  sched.run_until(sched.now() + 100ms);
  EXPECT_EQ(vehicle.mode(), CarMode::kRemoteDiagnostic);
  EXPECT_EQ(vehicle.ecu().mode(), CarMode::kRemoteDiagnostic);
  EXPECT_EQ(vehicle.hpe("ecu")->current_mode(),
            static_cast<std::uint8_t>(CarMode::kRemoteDiagnostic));
}

TEST(Vehicle, FailSafeTriggerSwitchesModeAutomatically) {
  sim::Scheduler sched;
  Vehicle vehicle(sched);
  sched.run_until(sched.now() + 100ms);
  ASSERT_EQ(vehicle.mode(), CarMode::kNormal);

  // A crash-grade acceleration reading makes the safety node trigger
  // fail-safe; the gateway hears it and broadcasts the mode change.
  vehicle.safety().set_armed(true);
  vehicle.sensors().set_speed(30);
  // Inject the crash directly at the safety node's input path by sending a
  // high-acceleration sensor frame from the sensor node itself.
  vehicle.sensors().controller().transmit(
      command_frame(msg::kSensorAccel, 250));
  sched.run_until(sched.now() + 200ms);

  EXPECT_EQ(vehicle.mode(), CarMode::kFailSafe);
  EXPECT_GE(vehicle.safety().failsafe_triggers(), 1u);
  EXPECT_FALSE(vehicle.doors().locked());  // crash unlock
  EXPECT_GE(vehicle.connectivity().ecalls_made(), 1u);
}

TEST(Vehicle, PolicyUpdateAcceptedWhenSigned) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  Vehicle vehicle(sched, config);
  const core::PolicySigner oem(0xFEED);

  core::PolicySet next = full_policy(connected_car_threat_model(), 2);
  core::PolicyBundle bundle{next, oem.sign(next), "oem"};
  EXPECT_TRUE(vehicle.apply_policy_update(bundle, oem));
  EXPECT_EQ(vehicle.policy().version(), 2u);
  EXPECT_EQ(vehicle.hpe("ecu")->policy_version(), 2u);
}

TEST(Vehicle, PolicyUpdateRejectedWhenForged) {
  for (const Enforcement regime :
       {Enforcement::kNone, Enforcement::kSoftwareFilter, Enforcement::kHpe}) {
    sim::Scheduler sched;
    VehicleConfig config;
    config.enforcement = regime;
    Vehicle vehicle(sched, config);
    const core::PolicySigner oem(0xFEED);
    core::PolicySet next = full_policy(connected_car_threat_model(), 2);
    core::PolicyBundle forged{next, 0xBAD, "mallory"};
    EXPECT_FALSE(vehicle.apply_policy_update(forged, oem))
        << to_string(regime);
    EXPECT_EQ(vehicle.policy().version(), 1u);
  }
}

TEST(Vehicle, SignedRollbackRefusedInEveryRegime) {
  // A correctly signed bundle older than the vehicle's policy is a
  // rollback: every regime refuses it, and the HPEs, provisioned at the
  // vehicle's version, keep it.
  for (const Enforcement regime :
       {Enforcement::kNone, Enforcement::kSoftwareFilter, Enforcement::kHpe}) {
    sim::Scheduler sched;
    VehicleConfig config;
    config.enforcement = regime;
    config.policy_version = 5;
    Vehicle vehicle(sched, config);
    const core::PolicySigner oem(0xFEED);
    core::PolicySet stale = full_policy(connected_car_threat_model(), 3);
    core::PolicyBundle bundle{stale, oem.sign(stale), "oem"};
    EXPECT_FALSE(vehicle.apply_policy_update(bundle, oem))
        << to_string(regime);
    EXPECT_EQ(vehicle.policy().version(), 5u) << to_string(regime);
    if (regime == Enforcement::kHpe) {
      for (const std::string& name : vehicle.node_names()) {
        EXPECT_EQ(vehicle.hpe(name)->policy_version(), 5u) << name;
      }
    }
  }
}

TEST(Vehicle, BusErrorsToleratedByRetransmission) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.bus_error_rate = 0.05;  // 5% of frames destroyed
  Vehicle vehicle(sched, config);
  sched.run_until(sched.now() + 1s);
  EXPECT_GT(vehicle.bus().frames_corrupted(), 0u);
  // The control loop still works end to end.
  EXPECT_EQ(vehicle.ecu().speed(), vehicle.sensors().speed());
  EXPECT_GT(vehicle.engine().torque_commands(), 5u);
}

TEST(Vehicle, AttackerPortIsUnpoliced) {
  sim::Scheduler sched;
  VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  Vehicle vehicle(sched, config);
  can::Port& port = vehicle.attach_attacker("mallory");
  EXPECT_TRUE(port.connected());
  // An attacker frame reaches the wire without any HPE involvement.
  EXPECT_TRUE(port.submit(command_frame(msg::kSensorSpeed, 0)));
}

TEST(Vehicle, EnforcementNamesRender) {
  EXPECT_EQ(to_string(Enforcement::kNone), "none");
  EXPECT_EQ(to_string(Enforcement::kSoftwareFilter), "software-filter");
  EXPECT_EQ(to_string(Enforcement::kHpe), "hpe");
}

}  // namespace
}  // namespace psme::car
