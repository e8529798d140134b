#include "car_world.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "attack/attacker.h"
#include "attack/campaign.h"
#include "can/bus.h"
#include "can/wire_mac.h"
#include "car/base_policy.h"
#include "car/fleet_boot.h"
#include "car/ids.h"
#include "car/network_mgmt.h"
#include "car/policy_binding.h"
#include "car/quarantine.h"
#include "car/vehicle.h"
#include "core/policy_blob.h"
#include "core/policy_delta.h"
#include "monitor/anomaly.h"
#include "sim/fault_plan.h"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
using psme::sim::SimTime;
namespace attack = psme::attack;
namespace can = psme::can;
namespace car = psme::car;
namespace core = psme::core;
namespace monitor = psme::monitor;
namespace sim = psme::sim;

constexpr std::array<const char*, 8> kNodes = {
    "ecu", "eps", "engine", "sensors", "doors", "safety", "connectivity",
    "infotainment"};
constexpr std::size_t kModes = 3;
using WireMacs =
    std::array<std::array<std::unique_ptr<can::WireMac>, kModes>, kNodes.size()>;

/// IDS training covers a full mode cycle, so benign mode traffic is part
/// of the learned matrix; detection and the quarantine start after it.
constexpr sim::SimDuration kTraining = 3000ms;
constexpr sim::SimDuration kModePeriod = 2000ms;
constexpr sim::SimDuration kEpisode = 1500ms;
constexpr sim::SimDuration kAttackOffset = 100ms;

/// The nine single-bus frame families (the OTA and segmented families
/// need other worlds).
constexpr std::array<attack::Family, 9> kFrameFamilies = {
    attack::Family::kNmImpersonation,    attack::Family::kNmSleepAbuse,
    attack::Family::kNmLimpHomeForce,    attack::Family::kDiagSessionHijack,
    attack::Family::kBusFlood,           attack::Family::kTargetedFrameStorm,
    attack::Family::kFilterProbeSweep,   attack::Family::kModeConfusion,
    attack::Family::kFrameFuzz,
};

[[nodiscard]] std::size_t wire_mode_of(std::uint8_t mode_byte) noexcept {
  // Mirrors the HPE: a mode byte without its own lists selects the
  // default (normal-mode) lists.
  return mode_byte < kModes ? mode_byte : 0;
}

/// Everything a traced run needs to price the wire MAC afterwards: the
/// frames each controller handed to its wire MAC, in order.
struct IngressEntry {
  can::Frame frame;
  SimTime at{};
  std::uint8_t node = 0;
  std::uint8_t mode = 0;
};

/// The IDS tap: feeds the rate monitor and snoops the mode-change id to
/// switch every node's wire MAC, as each HPE snoops it for its lists.
class Tap final : public can::FrameSink {
 public:
  Tap(monitor::FrameRateMonitor& ids, const WireMacs& macs,
      const std::array<can::Controller*, kNodes.size()>& controllers, Tracer* tracer)
      : ids_(ids), macs_(macs), controllers_(controllers), tracer_(tracer) {}

  void on_frame(const can::Frame& frame, SimTime at) override {
    if (tracer_ != nullptr) {
      tracer_->open(SpanName::kMonitor);
      ids_.on_frame(frame, at);
      tracer_->close(SpanName::kMonitor);
    } else {
      ids_.on_frame(frame, at);
    }
    if (!frame.id().is_extended() && frame.id().raw() == car::msg::kModeChange &&
        frame.dlc() >= 1) {
      mode_ = static_cast<std::uint8_t>(wire_mode_of(frame.byte0()));
      for (std::size_t i = 0; i < kNodes.size(); ++i) {
        controllers_[i]->set_wire_mac(macs_[i][mode_].get());
      }
    }
  }

  [[nodiscard]] std::uint8_t mode() const noexcept { return mode_; }

 private:
  monitor::FrameRateMonitor& ids_;
  const WireMacs& macs_;
  const std::array<can::Controller*, kNodes.size()>& controllers_;
  Tracer* tracer_;
  std::uint8_t mode_ = 0;
};

/// Traced runs only: HPE -> controller. Logs every frame that will reach
/// the wire MAC (not quarantined, passes the acceptance filter) before
/// timing the controller.
class IngressSink final : public can::FrameSink {
 public:
  IngressSink(can::Controller& controller, Tracer& tracer,
              std::vector<IngressEntry>& log, const Tap& tap, std::uint8_t node)
      : controller_(controller), tracer_(tracer), log_(log), tap_(tap),
        node_(node) {}

  void on_frame(const can::Frame& frame, SimTime at) override {
    if (reaches_wire_mac(frame)) {
      log_.push_back(IngressEntry{frame, at, node_, tap_.mode()});
    }
    tracer_.open(SpanName::kHpeController);
    controller_.on_frame(frame, at);
    tracer_.close(SpanName::kHpeController);
  }
  void on_transmit_complete(const can::Frame& frame, bool success,
                            SimTime at) override {
    tracer_.open(SpanName::kHpeController);
    controller_.on_transmit_complete(frame, success, at);
    tracer_.close(SpanName::kHpeController);
  }

 private:
  [[nodiscard]] bool reaches_wire_mac(const can::Frame& frame) const {
    for (const can::CanId id : controller_.quarantined_ids()) {
      if (id == frame.id()) return false;
    }
    const auto& filters = controller_.filters();
    if (filters.empty()) return true;
    for (const can::AcceptanceFilter& filter : filters) {
      if (filter.matches(frame.id())) return true;
    }
    return false;
  }

  can::Controller& controller_;
  Tracer& tracer_;
  std::vector<IngressEntry>& log_;
  const Tap& tap_;
  std::uint8_t node_;
};

void add_stats(Digest& digest, const can::ControllerStats& s) {
  for (const std::uint64_t v :
       {s.tx_queued, s.tx_sent, s.tx_retransmits, s.tx_dropped, s.rx_seen,
        s.rx_accepted, s.rx_filtered, s.rx_overflow, s.rx_quarantined,
        s.rx_wire_denied}) {
    digest.add(v);
  }
}

}  // namespace

core::AccessRequest car_first_request() {
  return core::AccessRequest{"ep.connectivity", "connectivity",
                             core::AccessType::kWrite,
                             psme::threat::ModeId{"normal"}};
}

core::PolicySet with_quarantine_rule(const core::PolicySet& source) {
  core::PolicySet target(source.name(), source.version() + 1);
  target.set_default_allow(source.default_allow());
  for (const core::PolicyRule& rule : source.rules()) target.add_rule(rule);
  target.add_rule(car::quarantine_rule());
  return target;
}

CarRepetition car_repetition(const RunOptions& options, const CarSpec& spec,
                             Tracer* tracer, Outcome& out) {
  const Clock::time_point setup_start = Clock::now();
  CarRepetition result;
  Samples& samples = out.samples;
  const bool attack_world = spec.episodes > 0;

  // Declaration order is destruction order reversed: the timing sinks
  // outlive the vehicle that points at them, the images outlive the
  // wire MACs that borrow them.
  std::vector<std::unique_ptr<can::FrameSink>> timing_sinks;
  std::vector<IngressEntry> ingress_log;
  sim::Scheduler sched;

  car::VehicleConfig config;
  config.enforcement = car::Enforcement::kHpe;
  config.hpe_content_rules = true;
  config.seed = sim::mix3(options.seed, 0xCA2, 1);
  car::Vehicle vehicle(sched, config);

  // -- the ECUs' policy path: blob -> FleetBoot -> first decision ---------
  const core::CompiledPolicyImage& base = vehicle.policy().image();
  Clock::time_point t0 = Clock::now();
  const std::vector<std::byte> blob = core::PolicyBlobWriter::write(base);
  const double write_us = ns_between(t0, Clock::now()) / 1e3;
  const core::CompiledPolicyImage target = core::CompiledPolicyImage::from_policy_set(
      with_quarantine_rule(vehicle.policy()),
      core::replicate_sid_prefix(base.sids(), base.sids().size()));
  std::vector<std::byte> delta = core::PolicyDeltaWriter::write(base, target);
  if (options.inject == Inject::kBitflipDelta) delta[delta.size() / 2] ^= std::byte{0x5A};

  std::array<std::unique_ptr<car::FleetBoot>, kNodes.size()> ecus;
  std::vector<double> boot_us;
  for (std::size_t i = 0; i < kNodes.size(); ++i) {
    t0 = Clock::now();
    ecus[i] = std::make_unique<car::FleetBoot>(std::span<const std::byte>(blob),
                                               car::default_fleet_checks());
    const core::CompiledPolicyImage& image = ecus[i]->image();
    const core::Decision first = image.evaluate(image.resolve(car_first_request()));
    boot_us.push_back(ns_between(t0, Clock::now()) / 1e3);
    ++out.ops;
    if (image.fingerprint() != base.fingerprint()) ++out.ops_failed;
    out.check(first.allowed == base.evaluate(base.resolve(car_first_request())).allowed,
              "ecu boot: first decision differs from the compiled policy");
  }

  // One wire MAC per node per mode over the node's booted image. The
  // negative test compiles every node's tables for its neighbour.
  const auto build_wire_macs = [&] {
    WireMacs built;
    for (std::size_t i = 0; i < kNodes.size(); ++i) {
      const std::size_t table_node =
          options.inject == Inject::kWrongNodeTable ? (i + 1) % kNodes.size() : i;
      car::BindingCompiler compiler(ecus[i]->image());
      for (std::size_t m = 0; m < kModes; ++m) {
        built[i][m] = std::make_unique<can::WireMac>(
            compiler.build_wire_table(kNodes[table_node], static_cast<car::CarMode>(m)),
            ecus[i]->image());
      }
    }
    return built;
  };
  WireMacs macs = build_wire_macs();
  std::array<can::Controller*, kNodes.size()> controllers{};
  for (std::size_t i = 0; i < kNodes.size(); ++i) {
    controllers[i] = &vehicle.node(kNodes[i])->controller();
    controllers[i]->set_wire_mac(macs[i][0].get());
  }

  // -- the OSEK-NM ring ----------------------------------------------------
  car::nm::NmOptions nm_options;
  nm_options.token_wait = 250ms;
  nm_options.limp_limit = 2;
  std::vector<std::unique_ptr<car::nm::NmParticipant>> ring;
  for (std::uint8_t address = 1; address <= 4; ++address) {
    can::Port& port = vehicle.bus().attach("nm-port-" + std::to_string(address));
    ring.push_back(std::make_unique<car::nm::NmParticipant>(sched, port, address,
                                                            nm_options));
    car::nm::NmParticipant* station = ring.back().get();
    sched.schedule_in(std::chrono::milliseconds{10 + 7 * address},
                      [station] { station->start(); }, "bench.nm.start");
  }

  // -- IDS tap, quarantine, attacker ----------------------------------------
  can::Port& tap_port = vehicle.bus().attach("ids-tap");
  monitor::FrameRateMonitor ids(sched);
  Tap tap(ids, macs, controllers, tracer);
  tap_port.set_sink(&tap);
  ids.start_training();

  std::unique_ptr<car::QuarantineController> quarantine;
  sched.schedule_at(SimTime{kTraining}, [&] {
    ids.start_detection();
    car::QuarantineOptions q_options;
    q_options.escalate_after_alerts = 25;
    quarantine = car::make_vehicle_quarantine(vehicle, ids, q_options);
    for (const auto& station : ring) quarantine->protect(station->controller());
    quarantine->start();
  }, "bench.detect");

  std::unique_ptr<attack::OutsideAttacker> attacker;
  can::Port* attacker_port = nullptr;
  std::vector<std::vector<attack::AttackStep>> episodes;
  std::uint64_t refused = 0;
  if (attack_world) {
    attacker_port = &vehicle.attach_attacker("bench-attacker");
    attacker = std::make_unique<attack::OutsideAttacker>(sched, *attacker_port);
    attack::CampaignOptions campaign;
    campaign.seed = sim::mix3(options.seed, 0xA77, 2);
    const attack::CampaignPlan plan(campaign);
    for (std::uint32_t k = 0; k < spec.episodes; ++k) {
      episodes.push_back(plan.steps(kFrameFamilies[k % kFrameFamilies.size()], k));
    }
    for (std::uint32_t k = 0; k < spec.episodes; ++k) {
      const SimTime start{kTraining + k * kEpisode};
      sched.schedule_at(start, [&, k] {
        attacker_port->reconnect();
        for (const attack::AttackStep& step : episodes[k]) {
          sched.schedule_in(kAttackOffset + step.offset, [&, frame = step.frame] {
            if (!attacker->inject(frame)) ++refused;
          }, "bench.attack");
        }
      }, "bench.episode");
    }
  }

  // -- the benign mode cycle: normal -> remote-diag -> fail-safe -> ... ----
  const sim::SimDuration run_length =
      kTraining + (attack_world ? spec.episodes * kEpisode : sim::SimDuration{spec.drive});
  constexpr std::array<car::CarMode, 3> kCycle = {
      car::CarMode::kRemoteDiagnostic, car::CarMode::kFailSafe,
      car::CarMode::kNormal};
  std::vector<std::pair<SimTime, car::CarMode>> mode_changes = {
      {SimTime{600ms}, kCycle[0]}, {SimTime{1200ms}, kCycle[1]}, {SimTime{1800ms}, kCycle[2]}};
  for (std::uint32_t k = 1; kTraining + k * kModePeriod < run_length; ++k) {
    mode_changes.emplace_back(SimTime{kTraining + k * kModePeriod}, kCycle[(k - 1) % 3]);
  }
  for (const auto& [at, mode] : mode_changes) {
    sched.schedule_at(at, [&vehicle, mode = mode] { vehicle.set_mode(mode); }, "bench.mode");
  }
  bool stop = false;
  sched.schedule_at(SimTime{run_length}, [&stop] { stop = true; }, "bench.stop");

  // -- traced runs: splice timing sinks into every port --------------------
  std::map<std::string, can::FrameSink*> plain_listeners;
  plain_listeners["gateway"] = &vehicle.gateway().controller();
  for (std::size_t r = 0; r < ring.size(); ++r) {
    plain_listeners["nm-port-" + std::to_string(r + 1)] = &ring[r]->controller();
  }
  if (attacker) plain_listeners["bench-attacker"] = &attacker->controller();
  if (tracer != nullptr) {
    tracer->reset_sums();
    ingress_log.reserve(1 << 16);
    for (std::size_t p = 0; p < vehicle.bus().port_count(); ++p) {
      can::Port& port = vehicle.bus().port(p);
      const std::string& name = port.name();
      if (name == "ids-tap") {
        timing_sinks.push_back(std::make_unique<TimedSink>(tap, *tracer, SpanName::kPortTap));
        port.set_sink(timing_sinks.back().get());
        continue;
      }
      std::size_t node = kNodes.size();
      for (std::size_t i = 0; i < kNodes.size(); ++i) {
        if (name == kNodes[i]) node = i;
      }
      if (node < kNodes.size()) {
        psme::hpe::HardwarePolicyEngine& engine = *vehicle.hpe(name);
        timing_sinks.push_back(std::make_unique<IngressSink>(
            *controllers[node], *tracer, ingress_log, tap,
            static_cast<std::uint8_t>(node)));
        engine.set_sink(timing_sinks.back().get());
        timing_sinks.push_back(
            std::make_unique<TimedSink>(engine, *tracer, SpanName::kPortHpe));
        port.set_sink(timing_sinks.back().get());
      } else {
        timing_sinks.push_back(std::make_unique<TimedSink>(
            *plain_listeners.at(name), *tracer, SpanName::kPortController));
        port.set_sink(timing_sinks.back().get());
      }
    }
  }

  // -- the timed drive -------------------------------------------------------
  const Clock::time_point drive_start = Clock::now();
  result.setup_s = ns_between(setup_start, drive_start) / 1e9;
  std::uint64_t events = 0;
  if (tracer != nullptr) {
    while (!stop) {
      tracer->set_group(events + 1);  // the spans of this step's bus frame
      if (!sched.step()) break;
      ++events;
    }
  } else {
    while (!stop && sched.step()) ++events;
  }
  const double wall_ns = ns_between(drive_start, Clock::now());

  // -- frame-path accounting ------------------------------------------------
  can::Bus& bus = vehicle.bus();
  const std::uint64_t frames = bus.frames_delivered();
  out.check(frames > 0, "car: no bus frame delivered");
  const double per_frame = frames > 0 ? 1.0 / static_cast<double>(frames) : 0.0;
  samples.add(tracer != nullptr ? "trace.frame_ns" : "frame_ns", "ns",
              wall_ns * per_frame);

  Digest digest;
  digest.add(frames);
  digest.add(bus.frames_corrupted());
  digest.add(bus.arbitration_rounds());
  digest.add(events);

  // Controllers: the 8 policed nodes, then the unpoliced legitimate ones
  // (gateway, NM ring), then the attacker.
  std::vector<const can::Controller*> legit;
  for (can::Controller* c : controllers) legit.push_back(c);
  legit.push_back(&vehicle.gateway().controller());
  for (const auto& station : ring) legit.push_back(&station->controller());
  std::vector<const can::Controller*> all = legit;
  if (attacker) all.push_back(&attacker->controller());

  can::ControllerStats sum;
  std::uint64_t legit_dropped = 0, legit_offered = 0;
  for (const can::Controller* c : all) {
    const can::ControllerStats& s = c->stats();
    add_stats(digest, s);
    out.check(s.rx_seen == s.rx_quarantined + s.rx_filtered + s.rx_wire_denied +
                               s.rx_accepted,
              "controller " + c->name() +
                  ": rx_seen != quarantined + filtered + wire_denied + accepted");
    sum.rx_seen += s.rx_seen;
    sum.rx_quarantined += s.rx_quarantined;
    sum.rx_filtered += s.rx_filtered;
    sum.rx_wire_denied += s.rx_wire_denied;
    sum.rx_accepted += s.rx_accepted;
    sum.rx_overflow += s.rx_overflow;
  }
  for (const can::Controller* c : legit) {
    legit_offered += c->stats().tx_queued + c->stats().tx_dropped;
    legit_dropped += c->stats().tx_dropped;
  }
  // Every frame a policed controller handed to its wire MAC had passed
  // that node's HPE first: a wire denial is the two enforcement points
  // disagreeing.
  std::uint64_t hpe_then_wire_denied = 0;
  for (const can::Controller* c : controllers) hpe_then_wire_denied += c->stats().rx_wire_denied;
  out.ops += legit_offered;
  // The benign drive must lose nothing and agree everywhere, so a loss or
  // a disagreement there is a failed operation. Under attack, floods and
  // forged ids cost legitimate transmits by design, and the diagnostic
  // frames the attacker provokes are not ISO-TP: those are the attack's
  // effect, counted as lost and priced by the per-layer metrics.
  (attack_world ? out.ops_lost : out.ops_failed) += legit_dropped + hpe_then_wire_denied;

  psme::hpe::HpeStats hpe_sum;
  std::uint64_t audit_records = 0;
  for (const char* name : kNodes) {
    const psme::hpe::HardwarePolicyEngine& engine = *vehicle.hpe(name);
    const psme::hpe::HpeStats& s = engine.stats();
    for (const std::uint64_t v : {s.read_granted, s.read_blocked, s.write_granted,
                                  s.write_blocked, s.mode_switches}) {
      digest.add(v);
    }
    hpe_sum.read_granted += s.read_granted;
    hpe_sum.read_blocked += s.read_blocked;
    hpe_sum.write_granted += s.write_granted;
    hpe_sum.write_blocked += s.write_blocked;
    audit_records += engine.audit_log().size();
  }

  can::WireMacStats wire_sum;
  std::array<std::uint64_t, static_cast<std::size_t>(can::WireDropReason::kCount)> drops{};
  for (const auto& per_node : macs) {
    for (const auto& mac : per_node) {
      const can::WireMacStats& s = mac->stats();
      for (const std::uint64_t v : {s.frames, s.passed, s.adjudicated, s.sid_requests,
                                    s.allowed, s.denied, s.unbound, s.flow_frames,
                                    s.flow_denied_frames, s.isotp_errors}) {
        digest.add(v);
      }
      wire_sum.frames += s.frames;
      wire_sum.passed += s.passed;
      wire_sum.flow_frames += s.flow_frames;
      for (std::size_t r = 0; r < drops.size(); ++r) drops[r] += mac->drops_by_reason()[r];
    }
  }
  std::uint64_t wire_drops = 0;
  for (std::size_t r = 0; r + 1 < drops.size(); ++r) wire_drops += drops[r];

  car::QuarantineStats q;
  double first_action_ms = 0.0;
  if (quarantine) {
    q = quarantine->stats();
    // Per attack episode: simulated ms from the attack window opening to
    // the quarantine's first block, isolation or escalation.
    std::map<std::uint64_t, double> first_by_episode;
    for (const car::QuarantineEvent& e : quarantine->events()) {
      if (e.action == car::QuarantineAction::kIdReleased ||
          e.action == car::QuarantineAction::kAllowlistSkip || e.at < SimTime{kTraining}) {
        continue;
      }
      const sim::SimDuration since = e.at - SimTime{kTraining};
      const auto k = static_cast<std::uint64_t>(since / kEpisode);
      const double ms = std::chrono::duration<double, std::milli>(
                            since - k * kEpisode - kAttackOffset).count();
      first_by_episode.emplace(k, ms);
    }
    for (const auto& [k, ms] : first_by_episode) first_action_ms += ms;
    if (!first_by_episode.empty()) first_action_ms /= static_cast<double>(first_by_episode.size());
    digest.add(quarantine->events().size());
  }
  for (const std::uint64_t v : {q.ids_blocked, q.ports_isolated, q.escalations,
                                q.allowlist_skips, q.alerts_consumed}) {
    digest.add(v);
  }
  digest.add(ids.alerts().size());
  const std::uint64_t injected = attacker ? attacker->frames_injected() : 0;
  digest.add(injected);
  digest.add(refused);

  const double sim_seconds = std::chrono::duration<double>(run_length).count();
  const std::uint64_t deliveries =
      sum.rx_seen + hpe_sum.read_blocked + ids.frames_observed();
  samples.add("sim.events_per_frame", "events", static_cast<double>(events) * per_frame);
  samples.add("can.bus.frames_per_sim_s", "frames/s", static_cast<double>(frames) / sim_seconds);
  samples.add("can.bus.fanout", "rx/frame", static_cast<double>(deliveries) * per_frame);
  samples.add("can.bus.util", "ratio", bus.utilisation());
  samples.add("hpe.rx_block_share", "ratio",
              share(hpe_sum.read_blocked, hpe_sum.read_granted + hpe_sum.read_blocked));
  samples.add("hpe.tx_block_share", "ratio",
              share(hpe_sum.write_blocked, hpe_sum.write_granted + hpe_sum.write_blocked));
  samples.add("hpe.audit_records", "count", static_cast<double>(audit_records));
  samples.add("can.controller.rx_seen", "count", static_cast<double>(sum.rx_seen));
  samples.add("can.controller.rx_quarantined", "count", static_cast<double>(sum.rx_quarantined));
  samples.add("can.controller.rx_filtered", "count", static_cast<double>(sum.rx_filtered));
  samples.add("can.controller.rx_wire_denied", "count", static_cast<double>(sum.rx_wire_denied));
  samples.add("can.controller.rx_accepted", "count", static_cast<double>(sum.rx_accepted));
  samples.add("can.controller.rx_overflow", "count", static_cast<double>(sum.rx_overflow));
  samples.add("can.controller.tx_dropped", "count", static_cast<double>(legit_dropped));
  samples.add("can.wire_mac.deny_share", "ratio", share(wire_drops, wire_sum.frames));
  samples.add("can.wire_mac.pass_share", "ratio", share(wire_sum.passed, wire_sum.frames));
  samples.add("can.wire_mac.flow_share", "ratio", share(wire_sum.flow_frames, wire_sum.frames));
  constexpr std::array<const char*, 5> kDropNames = {
      "can.wire_mac.drops.policy", "can.wire_mac.drops.unbound", "can.wire_mac.drops.flow",
      "can.wire_mac.drops.malformed", "can.wire_mac.drops.timeout"};
  for (std::size_t r = 0; r < kDropNames.size(); ++r) {
    samples.add(kDropNames[r], "count", static_cast<double>(drops[r]));
  }
  samples.add("car.quarantine.blocks", "count", static_cast<double>(q.ids_blocked));
  samples.add("car.quarantine.isolations", "count", static_cast<double>(q.ports_isolated));
  samples.add("car.quarantine.escalations", "count", static_cast<double>(q.escalations));
  samples.add("car.quarantine.first_action_ms", "ms", first_action_ms);
  samples.add("monitor.rate.alerts", "count", static_cast<double>(ids.alerts().size()));
  samples.add("attack.injected", "count", static_cast<double>(injected));
  samples.add("attack.refused", "count", static_cast<double>(refused));

  // -- traced runs: price the wire MAC on twins, then split the wall -------
  if (tracer != nullptr) {
    const WireMacs twins = build_wire_macs();
    std::uint64_t twin_denied = 0;
    t0 = Clock::now();
    for (const IngressEntry& e : ingress_log) {
      if (!twins[e.node][e.mode]->admit(e.frame, e.at)) ++twin_denied;
    }
    const double wire_ns = ns_between(t0, Clock::now());
    out.check(twin_denied == hpe_then_wire_denied,
              "wire MAC twin replay disagrees with the live rx_wire_denied");

    const double port_hpe = tracer->inclusive_ns(SpanName::kPortHpe);
    const double hpe_ctl = tracer->inclusive_ns(SpanName::kHpeController);
    const double port_ctl = tracer->inclusive_ns(SpanName::kPortController);
    const double port_tap = tracer->inclusive_ns(SpanName::kPortTap);
    const double mon = tracer->inclusive_ns(SpanName::kMonitor);
    const double parts[] = {
        wall_ns - port_hpe - port_ctl - port_tap,  // sim: scheduler, bus, timers
        port_hpe - hpe_ctl,                        // hpe read path
        hpe_ctl + port_ctl - wire_ns,              // controllers + node handlers
        wire_ns,                                   // wire MAC (twin-priced)
        mon,                                       // rate monitor
        port_tap - mon,                            // the benchmark's tap
    };
    samples.add("sim.self_ns_per_frame", "ns", parts[0] * per_frame);
    samples.add("hpe.rx_ns", "ns", parts[1] * per_frame);
    samples.add("can.controller.rx_ns", "ns", parts[2] * per_frame);
    samples.add("can.wire_mac.ns_per_frame", "ns", parts[3] * per_frame);
    samples.add("monitor.rate.rx_ns", "ns", parts[4] * per_frame);
    samples.add("trace.tap_ns", "ns", parts[5] * per_frame);
    samples.add("can.wire_mac.admit_ns", "ns",
                ingress_log.empty() ? 0.0 : wire_ns / static_cast<double>(ingress_log.size()));
    double parts_sum = 0.0;
    for (const double p : parts) parts_sum += p;
    out.check(std::abs(parts_sum - wall_ns) <= 1e-6 * wall_ns,
              "traced frame split does not add up to the traced wall time");
  }

  result.digest = digest.value();
  if (!spec.policy_samples) return result;

  // -- the ECUs' policy path after the drive --------------------------------
  // Decision replay: every question the node's wire tables can ask, as
  // SID requests against the node's booted image, batched (verdict-only,
  // 256-wide) and scalar.
  std::vector<double> eval_ns;
  double batch_ns_total = 0.0;
  std::uint64_t batch_decisions = 0, allowed = 0, depth_sum = 0, request_count = 0;
  for (std::size_t i = 0; i < kNodes.size(); ++i) {
    const core::CompiledPolicyImage& image = ecus[i]->image();
    std::vector<core::SidRequest> requests;
    for (std::size_t m = 0; m < kModes; ++m) {
      const can::WireBindingTable& table = macs[i][m]->table();
      for (std::uint32_t id = 0; id <= can::CanId::kMaxStandard; ++id) {
        const std::int32_t slot = table.standard_slot(id);
        if (slot < 0) continue;
        const can::WireBindingTable::Binding& b = table.binding(slot);
        for (const psme::mac::Sid subject : table.subjects_of(b)) {
          requests.push_back({subject, b.object, b.access, table.mode_sid()});
        }
      }
    }
    std::vector<std::uint8_t> verdicts(requests.size());
    constexpr int kPasses = 40;
    for (int pass = 0; pass <= kPasses; ++pass) {
      t0 = Clock::now();
      for (std::size_t off = 0; off < requests.size(); off += kWireBatch) {
        const std::size_t n = std::min(kWireBatch, requests.size() - off);
        image.evaluate_batch_allowed({requests.data() + off, n}, {verdicts.data() + off, n});
      }
      if (pass > 0) {  // pass 0 warms the lazily built rule metadata
        batch_ns_total += ns_between(t0, Clock::now());
        batch_decisions += requests.size();
      }
    }
    for (int pass = 0; pass < 4; ++pass) {
      for (std::size_t r = 0; r < requests.size(); ++r) {
        t0 = Clock::now();
        const core::Decision d = image.evaluate(requests[r]);
        eval_ns.push_back(ns_between(t0, Clock::now()));
        if (pass == 0) {
          out.check(d.allowed == (verdicts[r] != 0),
                    "car decision replay: batched and scalar verdicts differ");
          allowed += d.allowed ? 1 : 0;
          depth_sum += image.probe_depth(requests[r]);
          ++request_count;
        }
      }
    }
  }
  std::sort(eval_ns.begin(), eval_ns.end());
  const double timer_ns = clock_overhead_ns();
  const double decide_ns = batch_decisions > 0 ? batch_ns_total / static_cast<double>(batch_decisions) : 0.0;
  double eval_mean = 0.0;
  for (const double v : eval_ns) eval_mean += v;
  eval_mean /= static_cast<double>(std::max<std::size_t>(1, eval_ns.size()));
  eval_mean -= timer_ns;
  samples.add("core.image.batch_ns", "ns", decide_ns);
  samples.add("core.image.evaluate_ns", "ns", eval_mean);
  samples.add("core.image.probe_depth", "probes",
              request_count > 0 ? static_cast<double>(depth_sum) / static_cast<double>(request_count) : 0.0);
  samples.add("core.image.allow_share", "ratio", share(allowed, request_count));
  digest.add(allowed);

  // The ECU fleet evaluator (one vehicle, the 192 default checks).
  t0 = Clock::now();
  const car::FleetTickStats tick = ecus[0]->fleet().tick();
  samples.add("car.fleet.tick_ms", "ms", ns_between(t0, Clock::now()) / 1e6);
  samples.add("car.fleet.allow_share", "ratio", share(tick.allowed, tick.decisions));

  samples.add("core.blob.bytes", "bytes", static_cast<double>(blob.size()));
  samples.add("core.blob.write_us", "us", write_us);
  samples.add("core.delta.bytes", "bytes", static_cast<double>(delta.size()));
  if (tracer != nullptr) {
    std::vector<double> load_us, apply_us;
    for (int k = 0; k < 16; ++k) {
      t0 = Clock::now();
      const core::CompiledPolicyImage loaded = core::PolicyBlobReader::load(blob);
      load_us.push_back(ns_between(t0, Clock::now()) / 1e3);
      try {
        t0 = Clock::now();
        const core::CompiledPolicyImage applied =
            core::PolicyDeltaReader::apply(ecus[0]->image(), delta);
        apply_us.push_back(ns_between(t0, Clock::now()) / 1e3);
      } catch (const std::exception&) {
        apply_us.push_back(ns_between(t0, Clock::now()) / 1e3);
      }
    }
    samples.add("core.blob.load_us", "us", median_of(load_us));
    samples.add("core.delta.apply_us", "us", median_of(apply_us));
    samples.add("car.fleet_boot.self_us", "us", median_of(boot_us) - median_of(load_us));
  }

  // OTA: the 1-rule quarantine delta lands on every ECU after the drive
  // (the wire MACs borrowed the pre-update images; they are done).
  std::vector<double> ota_us;
  for (std::size_t i = 0; i < kNodes.size(); ++i) {
    t0 = Clock::now();
    const car::UpdateResult r = ecus[i]->try_apply_delta_update(delta);
    const core::CompiledPolicyImage& image = ecus[i]->image();
    const core::Decision first = image.evaluate(image.resolve(car_first_request()));
    ota_us.push_back(ns_between(t0, Clock::now()) / 1e3);
    ++out.ops;
    if (r != car::UpdateResult::kOk || image.fingerprint() != target.fingerprint()) {
      ++out.ops_failed;
    }
    if (r == car::UpdateResult::kOk) {
      out.check(image.fingerprint() == target.fingerprint(),
                "ecu OTA: delta-applied fingerprint differs from the compiled target");
      digest.add(first.allowed);
    }
  }

  samples.add("boot_us", "us", median_of(boot_us));
  samples.add("ota_us", "us", median_of(ota_us));
  samples.add("decide_ns", "ns", decide_ns);
  samples.add("evaluate_p50_ns", "ns", percentile_sorted(eval_ns, 0.50) - timer_ns);
  samples.add("evaluate_p99_ns", "ns", percentile_sorted(eval_ns, 0.99) - timer_ns);

  result.digest = digest.value();
  return result;
}

}  // namespace perfbench
