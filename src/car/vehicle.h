// psme::car — assembling the connected car (paper Fig. 2 topology).
//
// A Vehicle wires all component nodes to one shared CAN bus and installs
// the chosen enforcement regime:
//
//  kNone           — the de-facto state of legacy vehicles: broadcast bus,
//                    no policing (the paper's problem statement);
//  kSoftwareFilter — each controller's programmable acceptance filter is
//                    configured from the policy set (Fig. 3's "software
//                    based filter"); mode changes require the node firmware
//                    to reprogram filters, and a firmware compromise can
//                    simply rewrite them;
//  kHpe            — a HardwarePolicyEngine wraps every node's bus port
//                    (Fig. 4), with per-mode approved lists, autonomous
//                    mode snooping, and lockable configuration.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "can/bus.h"
#include "car/base_policy.h"
#include "car/components.h"
#include "car/policy_binding.h"
#include "car/table1.h"
#include "core/update.h"
#include "hpe/hpe.h"

namespace psme::car {

enum class Enforcement : std::uint8_t {
  kNone,
  kSoftwareFilter,
  kHpe,
};

[[nodiscard]] std::string_view to_string(Enforcement e) noexcept;

struct VehicleConfig {
  Enforcement enforcement = Enforcement::kNone;
  CarMode initial_mode = CarMode::kNormal;
  double bus_error_rate = 0.0;
  /// Lock every HPE after provisioning (tamper resistance on).
  bool lock_hpes = true;
  /// Enable the fine-grained payload-rule extension on the HPEs.
  bool hpe_content_rules = false;
  /// Ablation switches (normally left on; see BindingOptions).
  bool hpe_writer_gate = true;
  bool hpe_mode_conditional = true;
  std::uint64_t seed = 42;
  std::uint64_t policy_version = 1;
};

class Vehicle {
 public:
  Vehicle(sim::Scheduler& sched, VehicleConfig config = {},
          sim::Trace* trace = nullptr);

  Vehicle(const Vehicle&) = delete;
  Vehicle& operator=(const Vehicle&) = delete;

  // -- topology ----------------------------------------------------------
  [[nodiscard]] can::Bus& bus() noexcept { return bus_; }
  [[nodiscard]] GatewayNode& gateway() noexcept { return *gateway_; }
  [[nodiscard]] EvEcuNode& ecu() noexcept { return *ecu_; }
  [[nodiscard]] EpsNode& eps() noexcept { return *eps_; }
  [[nodiscard]] EngineNode& engine() noexcept { return *engine_; }
  [[nodiscard]] SensorNode& sensors() noexcept { return *sensors_; }
  [[nodiscard]] DoorLockNode& doors() noexcept { return *doors_; }
  [[nodiscard]] SafetyCriticalNode& safety() noexcept { return *safety_; }
  [[nodiscard]] ConnectivityNode& connectivity() noexcept { return *connectivity_; }
  [[nodiscard]] InfotainmentNode& infotainment() noexcept { return *infotainment_; }

  /// Component node by name ("ecu", "doors", ...); nullptr when unknown.
  [[nodiscard]] CarNode* node(const std::string& name) noexcept;

  /// All component node names (excluding the gateway).
  [[nodiscard]] std::vector<std::string> node_names() const;

  /// The HPE guarding a node, or nullptr (wrong regime / unknown node).
  [[nodiscard]] hpe::HardwarePolicyEngine* hpe(const std::string& name) noexcept;

  /// Attaches a raw, unpoliced port for an *outside* attacker node (a
  /// malicious device introduced into the vehicle network).
  [[nodiscard]] can::Port& attach_attacker(const std::string& name);

  // -- modes and policy ---------------------------------------------------
  void set_mode(CarMode mode);
  [[nodiscard]] CarMode mode() const noexcept { return gateway_->current_mode(); }

  [[nodiscard]] const core::PolicySet& policy() const noexcept { return policy_; }
  [[nodiscard]] Enforcement enforcement() const noexcept {
    return config_.enforcement;
  }

  /// The vehicle's shared memoising binding compiler — its stats() show
  /// how many unique policy questions one vehicle compilation actually
  /// asks (examples/connected_car.cpp surfaces them).
  [[nodiscard]] const BindingCompiler& binding() const noexcept {
    return *binding_;
  }

  /// Applies an OTA policy update to every enforcement point. In every
  /// regime the vehicle first verifies the bundle and refuses any version
  /// not newer than its own. The HPE regime then goes through each
  /// engine's authenticated update path; software filters are
  /// reprogrammed. Returns true when the update was accepted everywhere.
  bool apply_policy_update(const core::PolicyBundle& bundle,
                           const core::PolicySigner& verifier);

  /// Sum of frames blocked by all HPEs (0 under other regimes).
  [[nodiscard]] std::uint64_t total_hpe_blocks() const noexcept;

 private:
  struct Station {
    can::Port* port = nullptr;
    std::unique_ptr<hpe::HardwarePolicyEngine> engine;  // kHpe regime only
  };

  /// Prepares the channel (port or HPE shim) a node should attach to.
  can::Channel& make_channel(const std::string& name);

  [[nodiscard]] BindingOptions binding_options() const noexcept;

  /// Rebuilds binding_ against the current policy_ (after construction or
  /// a policy update). Software filters are bound with default options —
  /// the ablation switches only shape HPE configurations.
  void reset_binding_compiler();

  void install_software_filters(CarMode mode);

  sim::Scheduler& sched_;
  VehicleConfig config_;
  sim::Trace* trace_;
  can::Bus bus_;
  core::PolicySet policy_;
  /// Shared memoising compiler from policy_ to approved lists/filters;
  /// one instance serves every node (and every mode) of this vehicle.
  std::unique_ptr<BindingCompiler> binding_;
  std::map<std::string, Station> stations_;

  std::unique_ptr<GatewayNode> gateway_;
  std::unique_ptr<EvEcuNode> ecu_;
  std::unique_ptr<EpsNode> eps_;
  std::unique_ptr<EngineNode> engine_;
  std::unique_ptr<SensorNode> sensors_;
  std::unique_ptr<DoorLockNode> doors_;
  std::unique_ptr<SafetyCriticalNode> safety_;
  std::unique_ptr<ConnectivityNode> connectivity_;
  std::unique_ptr<InfotainmentNode> infotainment_;
};

}  // namespace psme::car
