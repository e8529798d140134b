#include "car/network_mgmt.h"

#include <stdexcept>
#include <string>

namespace psme::car::nm {

using namespace std::chrono_literals;

std::string_view to_string(NmState state) noexcept {
  switch (state) {
    case NmState::kOff: return "off";
    case NmState::kLogin: return "login";
    case NmState::kOn: return "on";
    case NmState::kLimpHome: return "limp-home";
    case NmState::kSleep: return "sleep";
  }
  return "?";
}

can::Frame make_nm_frame(std::uint8_t source, std::uint8_t dest,
                         std::uint8_t opcode) {
  if (source > kMaxAddress || dest > kMaxAddress) {
    throw std::out_of_range("nm: address exceeds the 5-bit NM address space");
  }
  const std::uint8_t payload[2] = {dest, opcode};
  return can::Frame(can::CanId::standard(kNmBase | source), payload);
}

std::optional<NmInfo> parse_nm_frame(const can::Frame& frame) {
  if (frame.id().is_extended()) return std::nullopt;
  const std::uint32_t raw = frame.id().raw();
  if ((raw & ~static_cast<std::uint32_t>(kMaxAddress)) != kNmBase) {
    return std::nullopt;
  }
  if (frame.dlc() < 2) return std::nullopt;
  NmInfo info;
  info.source = static_cast<std::uint8_t>(raw & kMaxAddress);
  info.dest = frame.data()[0];
  info.opcode = frame.data()[1];
  return info;
}

NmParticipant::NmParticipant(sim::Scheduler& sched, can::Channel& channel,
                             std::uint8_t address, NmOptions options,
                             sim::Trace* trace)
    : can::Node(sched, channel, "nm-" + std::to_string(address), trace,
                0x4E4DULL ^ address),
      address_(address),
      options_(options) {
  if (address > kMaxAddress) {
    throw std::out_of_range("nm: address exceeds the 5-bit NM address space");
  }
  members_.insert(address_);
  // Only the NM id window reaches this station's application layer.
  controller().set_filters({can::AcceptanceFilter{
      ~static_cast<std::uint32_t>(kMaxAddress) & can::CanId::kMaxStandard,
      kNmBase, false}});
}

void NmParticipant::start() {
  if (state_ != NmState::kOff) return;
  state_ = NmState::kLogin;
  last_rx_ = scheduler().now();
  last_token_ = scheduler().now();
  send_alive();
  // Offer a first token so circulation can start once a peer logs in. The
  // bus never echoes the sender's own frames, so this cannot sustain a
  // one-member ring — a peerless station degrades to limp home instead.
  pending_pass_ = scheduler().schedule_in(
      options_.typ_delay, [this] { pass_token(); });
  supervision_ = std::make_unique<sim::PeriodicTask>(
      scheduler(), scheduler().now() + options_.poll_period,
      options_.poll_period, [this] { supervise(); });
}

void NmParticipant::send_alive() {
  std::uint8_t opcode = kOpAlive;
  if (options_.ready_to_sleep) opcode |= kSleepInd;
  ++stats_.alive_sent;
  send(make_nm_frame(address_, address_, opcode));
}

std::uint8_t NmParticipant::successor() const noexcept {
  // Logical ring: the next higher known address, wrapping at the top.
  auto it = members_.upper_bound(address_);
  if (it == members_.end()) it = members_.begin();
  return *it;
}

bool NmParticipant::ring_ready_to_sleep() const noexcept {
  if (!options_.ready_to_sleep) return false;
  for (const std::uint8_t member : members_) {
    if (member == address_) continue;
    const auto it = member_sleep_ind_.find(member);
    if (it == member_sleep_ind_.end() || !it->second) return false;
  }
  return true;
}

void NmParticipant::pass_token() {
  pending_pass_ = 0;
  if (state_ == NmState::kOff || state_ == NmState::kSleep ||
      state_ == NmState::kLimpHome) {
    return;
  }
  std::uint8_t opcode = kOpRing;
  if (options_.ready_to_sleep) {
    opcode |= kSleepInd;
    if (ring_ready_to_sleep()) opcode |= kSleepAck;
  }
  ++stats_.ring_sent;
  send(make_nm_frame(address_, successor(), opcode));
  if (opcode & kSleepAck) {
    // Sleep agreed: the acknowledging station sleeps with the ring.
    state_ = NmState::kSleep;
    ++stats_.sleeps_entered;
  }
}

void NmParticipant::supervise() {
  if (state_ == NmState::kOff || state_ == NmState::kSleep) return;
  const sim::SimTime now = scheduler().now();

  if (state_ == NmState::kLimpHome) {
    // Degraded station: keep beaconing so diagnosis can find it; a token
    // addressed to it (see handle_frame) recovers it into the ring.
    send(make_nm_frame(address_, address_, kOpLimpHome));
    return;
  }

  if (now - last_rx_ > options_.max_silence) {
    // Whole-ring silence: reconfigure by re-asserting presence.
    ++stats_.silence_timeouts;
    ++supervision_failures_;
    last_rx_ = now;
    send_alive();
  } else if (state_ == NmState::kOn &&
             now - last_token_ > options_.token_wait) {
    // NM traffic flows but the token never reaches us: we are being
    // skipped (phantom ring or deliberate starvation).
    ++stats_.skipped_detections;
    ++supervision_failures_;
    last_token_ = now;
    send_alive();
  }

  if (supervision_failures_ >= options_.limp_limit) enter_limp_home();
}

void NmParticipant::enter_limp_home() {
  if (state_ == NmState::kLimpHome) return;
  state_ = NmState::kLimpHome;
  ++stats_.limp_home_entries;
  supervision_failures_ = 0;
  send(make_nm_frame(address_, address_, kOpLimpHome));
}

void NmParticipant::handle_frame(const can::Frame& frame, sim::SimTime at) {
  const auto info = parse_nm_frame(frame);
  if (!info.has_value()) return;
  if (state_ == NmState::kOff) return;

  if (info->source == address_) {
    // The bus never echoes a station's own frames back at it, so any frame
    // under our source address was forged by someone else. Answer with
    // alive: the ring must keep seeing the real station.
    ++stats_.impersonations_detected;
    send_alive();
    return;
  }

  last_rx_ = at;
  members_.insert(info->source);
  member_sleep_ind_[info->source] = (info->opcode & kSleepInd) != 0;

  if (state_ == NmState::kSleep) {
    // Any NM traffic wakes the bus.
    state_ = NmState::kOn;
    ++stats_.wakeups;
    send_alive();
    return;
  }

  if (info->opcode & kSleepAck) {
    if (options_.ready_to_sleep) {
      state_ = NmState::kSleep;
      ++stats_.sleeps_entered;
      if (pending_pass_ != 0) {
        scheduler().cancel(pending_pass_);
        pending_pass_ = 0;
      }
    } else {
      // Vehicle still active here: refuse, and keep the ring awake by
      // re-asserting presence without the sleep indication.
      ++stats_.sleep_refusals;
      send_alive();
    }
    return;
  }

  if ((info->opcode & kOpRing) && info->dest == address_) {
    ++stats_.tokens_received;
    last_token_ = at;
    supervision_failures_ = 0;
    if (state_ == NmState::kLogin) {
      state_ = NmState::kOn;
    } else if (state_ == NmState::kLimpHome) {
      state_ = NmState::kOn;
      ++stats_.limp_home_recoveries;
    }
    if (pending_pass_ != 0) scheduler().cancel(pending_pass_);
    pending_pass_ = scheduler().schedule_in(
        options_.typ_delay, [this] { pass_token(); });
  }
}

}  // namespace psme::car::nm
