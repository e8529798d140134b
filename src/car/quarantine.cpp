#include "car/quarantine.h"

#include <algorithm>
#include <string>

#include "car/ids.h"
#include "car/modes.h"
#include "car/vehicle.h"

namespace psme::car {

std::string_view to_string(QuarantineAction action) noexcept {
  switch (action) {
    case QuarantineAction::kIdBlocked: return "id-blocked";
    case QuarantineAction::kIdReleased: return "id-released";
    case QuarantineAction::kPortIsolated: return "port-isolated";
    case QuarantineAction::kAllowlistSkip: return "allowlist-skip";
    case QuarantineAction::kEscalated: return "escalated";
  }
  return "?";
}

namespace {
[[nodiscard]] std::uint64_t id_key(can::CanId id) noexcept {
  return (static_cast<std::uint64_t>(id.is_extended()) << 32) | id.raw();
}
}  // namespace

QuarantineController::QuarantineController(
    sim::Scheduler& sched, can::Bus& bus,
    const monitor::FrameRateMonitor& monitor, QuarantineOptions options)
    : sched_(sched), bus_(bus), monitor_(monitor), options_(options) {}

void QuarantineController::protect(can::Controller& controller) {
  controllers_.push_back(&controller);
}

void QuarantineController::allow_id(std::uint32_t standard_id) {
  allowlist_.insert(standard_id);
}

void QuarantineController::protect_port(std::size_t port_index) {
  protected_ports_.insert(port_index);
}

void QuarantineController::start() {
  if (poller_ != nullptr) return;
  poller_ = std::make_unique<sim::PeriodicTask>(
      sched_, sched_.now() + options_.poll_period, options_.poll_period,
      [this] { poll(); });
}

std::vector<can::CanId> QuarantineController::blocked_ids() const {
  std::vector<can::CanId> ids;
  if (!controllers_.empty()) ids = controllers_.front()->quarantined_ids();
  return ids;
}

void QuarantineController::poll() {
  const auto& alerts = monitor_.alerts();
  for (; alerts_seen_ < alerts.size(); ++alerts_seen_) {
    const monitor::Alert& alert = alerts[alerts_seen_];
    ++stats_.alerts_consumed;
    const std::uint64_t key = id_key(alert.id);
    // First sighting of an offender: record the attribution baseline, so
    // the isolation decision measures traffic SINCE the anomaly began, not
    // the id's whole legitimate history.
    if (tx_snapshot_.find(key) == tx_snapshot_.end()) {
      tx_snapshot_[key] = bus_.tx_attribution(alert.id);
    }
    if (++alert_counts_[key] >= options_.react_after_alerts &&
        handled_.find(key) == handled_.end()) {
      react(alert.id);
    }
  }

  if (options_.escalate_after_alerts != 0 && !escalated_ &&
      stats_.alerts_consumed >= options_.escalate_after_alerts) {
    escalated_ = true;
    ++stats_.escalations;
    events_.push_back(QuarantineEvent{
        sched_.now(), QuarantineAction::kEscalated, can::CanId{},
        "alerts=" + std::to_string(stats_.alerts_consumed)});
    if (escalate_) escalate_();
  }
}

void QuarantineController::react(can::CanId id) {
  const std::uint64_t key = id_key(id);
  if (try_isolate(id)) {
    handled_.insert(key);
    return;
  }
  if (!id.is_extended() && allowlist_.count(id.raw()) != 0) {
    // Table-I-allowed traffic is never blocked: record the skip and leave
    // escalation (or a later dominance-clear isolation) to handle it.
    ++stats_.allowlist_skips;
    events_.push_back(QuarantineEvent{sched_.now(),
                                      QuarantineAction::kAllowlistSkip, id,
                                      "allowlisted id"});
    return;
  }
  install_block(id);
  handled_.insert(key);
}

bool QuarantineController::try_isolate(can::CanId id) {
  const std::uint64_t key = id_key(id);
  const std::vector<std::uint64_t> now = bus_.tx_attribution(id);
  const auto snap_it = tx_snapshot_.find(key);

  std::uint64_t best = 0, second = 0;
  std::size_t best_port = now.size();
  for (std::size_t i = 0; i < now.size(); ++i) {
    std::uint64_t delta = now[i];
    if (snap_it != tx_snapshot_.end() && i < snap_it->second.size()) {
      delta -= snap_it->second[i];
    }
    if (delta > best) {
      second = best;
      best = delta;
      best_port = i;
    } else if (delta > second) {
      second = delta;
    }
  }

  if (best_port == now.size() || best < options_.isolate_min_tx) return false;
  if (protected_ports_.count(best_port) != 0) return false;
  if (static_cast<double>(best) <
      options_.isolate_dominance * static_cast<double>(second)) {
    return false;  // no clear offender: cutting here could hit the owner
  }

  can::Port& port = bus_.port(best_port);
  if (!port.connected()) return false;
  port.disconnect();
  isolated_.push_back(best_port);
  ++stats_.ports_isolated;
  events_.push_back(QuarantineEvent{
      sched_.now(), QuarantineAction::kPortIsolated, id,
      "port=" + port.name() + " tx=" + std::to_string(best)});
  return true;
}

void QuarantineController::install_block(can::CanId id) {
  for (can::Controller* controller : controllers_) {
    controller->quarantine_id(id);
  }
  ++stats_.ids_blocked;
  events_.push_back(QuarantineEvent{sched_.now(), QuarantineAction::kIdBlocked,
                                    id, "expires in poll cycles"});
  sched_.schedule_in(options_.block_duration,
                     [this, id] { release_block(id); });
}

void QuarantineController::release_block(can::CanId id) {
  bool released = false;
  for (can::Controller* controller : controllers_) {
    released = controller->release_quarantined_id(id) || released;
  }
  if (!released) return;
  ++stats_.blocks_expired;
  // Eligible to be re-blocked if the anomaly persists.
  handled_.erase(id_key(id));
  events_.push_back(QuarantineEvent{sched_.now(), QuarantineAction::kIdReleased,
                                    id, "block expired"});
}

std::unique_ptr<QuarantineController> make_vehicle_quarantine(
    Vehicle& vehicle, const monitor::FrameRateMonitor& monitor,
    QuarantineOptions options) {
  auto quarantine = std::make_unique<QuarantineController>(
      vehicle.bus().scheduler(), vehicle.bus(), monitor, options);

  quarantine->protect(vehicle.gateway().controller());
  for (const std::string& name : vehicle.node_names()) {
    quarantine->protect(vehicle.node(name)->controller());
  }

  // The Table-I allowlist: every id the policy model legitimises for some
  // entry point in some mode. Blocking any of these would deny legitimate
  // traffic, so the quarantine layer may only isolate or escalate there.
  for (const AssetBinding& binding : asset_bindings()) {
    for (const std::uint32_t id : binding.command_ids) quarantine->allow_id(id);
    for (const std::uint32_t id : binding.status_ids) quarantine->allow_id(id);
  }
  for (const std::uint32_t id :
       {msg::kModeChange, msg::kFailSafeTrigger, msg::kEmergencyCall,
        msg::kSensorAccel, msg::kSensorBrake, msg::kSensorSpeed,
        msg::kSensorProximity, msg::kAirbagEvent, msg::kTrackingReport,
        msg::kFirmwareUpdate, msg::kDiagRequest, msg::kDiagResponse}) {
    quarantine->allow_id(id);
  }

  // The gateway owns the car mode; cutting it would decapitate the
  // vehicle. Its port is attached first in the Vehicle constructor.
  for (std::size_t i = 0; i < vehicle.bus().port_count(); ++i) {
    if (vehicle.bus().port(i).name() == "gateway") {
      quarantine->protect_port(i);
      break;
    }
  }

  quarantine->set_escalation(
      [&vehicle] { vehicle.set_mode(CarMode::kFailSafe); });
  return quarantine;
}

}  // namespace psme::car
