#include "car/vehicle.h"

namespace psme::car {

std::string_view to_string(Enforcement e) noexcept {
  switch (e) {
    case Enforcement::kNone: return "none";
    case Enforcement::kSoftwareFilter: return "software-filter";
    case Enforcement::kHpe: return "hpe";
  }
  return "?";
}

Vehicle::Vehicle(sim::Scheduler& sched, VehicleConfig config,
                 sim::Trace* trace)
    : sched_(sched),
      config_(config),
      trace_(trace),
      bus_(sched, can::kBitRate500k, trace, config.seed),
      policy_(full_policy(connected_car_threat_model(), config.policy_version)) {
  bus_.set_error_rate(config_.bus_error_rate);
  reset_binding_compiler();

  // The gateway is part of the trusted computing base (it owns the mode);
  // it attaches directly, without a policy shim.
  can::Port& gw_port = bus_.attach("gateway");
  gateway_ = std::make_unique<GatewayNode>(sched_, gw_port, trace_,
                                           config_.seed ^ 0x11);

  std::uint64_t salt = 0x20;
  ecu_ = std::make_unique<EvEcuNode>(sched_, make_channel("ecu"), trace_,
                                     config_.seed ^ salt++);
  eps_ = std::make_unique<EpsNode>(sched_, make_channel("eps"), trace_,
                                   config_.seed ^ salt++);
  engine_ = std::make_unique<EngineNode>(sched_, make_channel("engine"),
                                         trace_, config_.seed ^ salt++);
  sensors_ = std::make_unique<SensorNode>(sched_, make_channel("sensors"),
                                          trace_, config_.seed ^ salt++);
  doors_ = std::make_unique<DoorLockNode>(sched_, make_channel("doors"),
                                          trace_, config_.seed ^ salt++);
  safety_ = std::make_unique<SafetyCriticalNode>(
      sched_, make_channel("safety"), trace_, config_.seed ^ salt++);
  connectivity_ = std::make_unique<ConnectivityNode>(
      sched_, make_channel("connectivity"), trace_, config_.seed ^ salt++);
  infotainment_ = std::make_unique<InfotainmentNode>(
      sched_, make_channel("infotainment"), trace_, config_.seed ^ salt++);

  // Every component node answers workshop diagnostics under its address.
  for (const auto& name : node_names()) {
    node(name)->enable_diagnostics(diag_address_of(name));
  }

  if (config_.enforcement == Enforcement::kHpe && config_.lock_hpes) {
    for (auto& [name, station] : stations_) {
      if (station.engine) station.engine->lock();
    }
  }

  if (config_.enforcement == Enforcement::kSoftwareFilter) {
    install_software_filters(config_.initial_mode);
    // Software filters are mode-dependent; node firmware must reprogram
    // them whenever the gateway announces a mode change. (The HPE needs no
    // such hook — it snoops the mode frame itself.)
    gateway_->set_on_change(
        [this](CarMode mode) { install_software_filters(mode); });
  }

  if (config_.initial_mode != CarMode::kNormal) {
    gateway_->change_mode(config_.initial_mode);
  }
}

BindingOptions Vehicle::binding_options() const noexcept {
  BindingOptions options;
  options.content_rules = config_.hpe_content_rules;
  options.writer_existence_gate = config_.hpe_writer_gate;
  options.mode_conditional = config_.hpe_mode_conditional;
  return options;
}

void Vehicle::reset_binding_compiler() {
  binding_ = std::make_unique<BindingCompiler>(
      policy_, config_.enforcement == Enforcement::kSoftwareFilter
                   ? BindingOptions{}
                   : binding_options());
}

can::Channel& Vehicle::make_channel(const std::string& name) {
  Station& station = stations_[name];
  station.port = &bus_.attach(name);
  if (config_.enforcement == Enforcement::kHpe) {
    station.engine = std::make_unique<hpe::HardwarePolicyEngine>(
        *station.port, binding_->build_hpe_config(name), name, trace_);
    // The engine powers up in the configured initial mode.
    station.engine->set_mode(static_cast<std::uint8_t>(config_.initial_mode));
    return *station.engine;
  }
  return *station.port;
}

void Vehicle::install_software_filters(CarMode mode) {
  for (const auto& name : node_names()) {
    CarNode* n = node(name);
    if (n != nullptr) {
      n->controller().set_filters(binding_->build_rx_filters(name, mode));
    }
  }
  gateway_->controller().set_filters({
      can::AcceptanceFilter::exact(msg::kFailSafeTrigger),
      can::AcceptanceFilter::exact(msg::kModeChange),
  });
}

CarNode* Vehicle::node(const std::string& name) noexcept {
  if (name == "ecu") return ecu_.get();
  if (name == "eps") return eps_.get();
  if (name == "engine") return engine_.get();
  if (name == "sensors") return sensors_.get();
  if (name == "doors") return doors_.get();
  if (name == "safety") return safety_.get();
  if (name == "connectivity") return connectivity_.get();
  if (name == "infotainment") return infotainment_.get();
  return nullptr;
}

std::vector<std::string> Vehicle::node_names() const {
  return {"ecu",    "eps",    "engine",       "sensors",
          "doors",  "safety", "connectivity", "infotainment"};
}

hpe::HardwarePolicyEngine* Vehicle::hpe(const std::string& name) noexcept {
  const auto it = stations_.find(name);
  return it == stations_.end() ? nullptr : it->second.engine.get();
}

can::Port& Vehicle::attach_attacker(const std::string& name) {
  return bus_.attach(name);
}

void Vehicle::set_mode(CarMode mode) { gateway_->change_mode(mode); }

bool Vehicle::apply_policy_update(const core::PolicyBundle& bundle,
                                  const core::PolicySigner& verifier) {
  // One authenticity and rollback gate for every regime. The HPEs,
  // provisioned at this policy's version, repeat both checks in
  // apply_update.
  if (!verifier.verify(bundle.set, bundle.tag) ||
      bundle.version() <= policy_.version()) {
    return false;
  }
  if (config_.enforcement == Enforcement::kHpe) {
    // One compiler for the whole fleet of per-node configs; its memo
    // carries every shared policy verdict across the eight nodes.
    BindingCompiler update_binding(bundle.set, binding_options());
    bool all_ok = true;
    for (auto& [name, station] : stations_) {
      if (!station.engine) continue;
      const bool ok = station.engine->apply_update(
          bundle, verifier, update_binding.build_hpe_config(name));
      all_ok = all_ok && ok;
    }
    if (!all_ok) return false;
  }
  // Under kNone the policy is only recorded; nothing enforces it.
  policy_ = bundle.set;
  reset_binding_compiler();
  if (config_.enforcement == Enforcement::kSoftwareFilter) {
    install_software_filters(mode());
  }
  return true;
}

std::uint64_t Vehicle::total_hpe_blocks() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [name, station] : stations_) {
    if (station.engine) total += station.engine->stats().total_blocked();
  }
  return total;
}

}  // namespace psme::car
