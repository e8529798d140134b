#include "can/wire_mac.h"

#include <stdexcept>
#include <utility>

namespace psme::can {

namespace {

[[nodiscard]] std::uint64_t flow_key_of(CanId id) noexcept {
  return (static_cast<std::uint64_t>(id.is_extended()) << 32) | id.raw();
}

}  // namespace

std::string_view to_string(WireDropReason reason) noexcept {
  switch (reason) {
    case WireDropReason::kPolicyDenied: return "policy-denied";
    case WireDropReason::kUnbound: return "unbound";
    case WireDropReason::kFlowDenied: return "flow-denied";
    case WireDropReason::kMalformedIsoTp: return "malformed-isotp";
    case WireDropReason::kFlowTimeout: return "flow-timeout";
    case WireDropReason::kCount: break;
  }
  return "invalid";
}

// -- WireBindingTable::Builder --------------------------------------------

WireBindingTable::Builder& WireBindingTable::Builder::pass_standard(
    std::uint32_t id) {
  return pass_standard_range(id, id);
}

WireBindingTable::Builder& WireBindingTable::Builder::pass_standard_range(
    std::uint32_t first, std::uint32_t last) {
  if (first > last || last > CanId::kMaxStandard) {
    throw std::invalid_argument("WireBindingTable: bad standard id range");
  }
  for (std::uint32_t id = first; id <= last; ++id) {
    table_.std_slots_[id] = kPassSlot;
  }
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::pass_pgn(
    std::uint32_t pgn) {
  table_.pgn_slots_[pgn] = kPassSlot;
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::bind_standard(
    std::uint32_t id, std::span<const mac::Sid> subjects, mac::Sid object,
    core::AccessType access, bool isotp) {
  if (id > CanId::kMaxStandard) {
    throw std::invalid_argument("WireBindingTable: standard id > 0x7FF");
  }
  if (subjects.empty()) {
    throw std::invalid_argument(
        "WireBindingTable: standard binding needs at least one subject");
  }
  Binding b;
  b.object = object;
  b.access = access;
  b.subject_offset = static_cast<std::uint32_t>(table_.subjects_.size());
  b.subject_count = static_cast<std::uint16_t>(subjects.size());
  b.isotp = isotp;
  table_.subjects_.insert(table_.subjects_.end(), subjects.begin(),
                          subjects.end());
  table_.std_slots_[id] = static_cast<std::int32_t>(table_.bindings_.size());
  table_.bindings_.push_back(b);
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::bind_pgn(
    std::uint32_t pgn, std::span<const mac::Sid> subjects, mac::Sid object,
    core::AccessType access, bool isotp) {
  Binding b;
  b.object = object;
  b.access = access;
  b.subject_offset = static_cast<std::uint32_t>(table_.subjects_.size());
  b.subject_count = static_cast<std::uint16_t>(subjects.size());
  b.isotp = isotp;
  table_.subjects_.insert(table_.subjects_.end(), subjects.begin(),
                          subjects.end());
  table_.pgn_slots_[pgn] = static_cast<std::int32_t>(table_.bindings_.size());
  table_.bindings_.push_back(b);
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::j1939_source(
    std::uint8_t address, mac::Sid subject) {
  table_.j1939_sources_[address] = subject;
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::set_mode(
    mac::Sid mode_sid) {
  table_.mode_sid_ = mode_sid;
  return *this;
}

WireBindingTable::Builder& WireBindingTable::Builder::set_unbound_allowed(
    bool allowed) {
  table_.unbound_allowed_ = allowed;
  return *this;
}

WireBindingTable WireBindingTable::Builder::build() {
  return std::move(table_);
}

// -- WireMac ---------------------------------------------------------------

WireMac::WireMac(WireBindingTable table,
                 const core::CompiledPolicyImage& image)
    : table_(std::move(table)) {
  // One lane per (binding, candidate subject), or per mapped source
  // address of a per-source binding; lane_target[i] is the verdict byte
  // lane i ORs into.
  std::vector<core::SidRequest> lanes;
  std::vector<std::uint32_t> lane_target;
  const mac::Sid mode = table_.mode_sid();
  verdict_base_.reserve(table_.binding_count());
  for (std::size_t slot = 0; slot < table_.binding_count(); ++slot) {
    const WireBindingTable::Binding& binding =
        table_.binding(static_cast<std::int32_t>(slot));
    const auto base = static_cast<std::uint32_t>(verdicts_.size());
    verdict_base_.push_back(base);
    if (binding.subject_count == 0) {
      verdicts_.resize(verdicts_.size() + 256, 0);
      for (unsigned address = 0; address < 256; ++address) {
        const mac::Sid subject =
            table_.j1939_subject(static_cast<std::uint8_t>(address));
        if (subject == mac::kNullSid) continue;  // unbound, never asked
        lanes.push_back({subject, binding.object, binding.access, mode});
        lane_target.push_back(base + address);
      }
      continue;
    }
    verdicts_.push_back(0);
    for (const mac::Sid subject : table_.subjects_of(binding)) {
      lanes.push_back({subject, binding.object, binding.access, mode});
      lane_target.push_back(base);
    }
  }
  std::vector<std::uint8_t> allowed(lanes.size());
  image.evaluate_batch_allowed(lanes, allowed);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    verdicts_[lane_target[i]] |= allowed[i];
  }
}

void WireMac::count_drop(const Frame& frame, WireDropReason reason,
                         sim::SimTime at) {
  ++drops_by_reason_[static_cast<std::size_t>(reason)];
  switch (reason) {
    case WireDropReason::kPolicyDenied: ++stats_.denied; break;
    case WireDropReason::kUnbound: ++stats_.unbound; break;
    case WireDropReason::kFlowDenied: ++stats_.flow_denied_frames; break;
    case WireDropReason::kMalformedIsoTp: ++stats_.isotp_errors; break;
    case WireDropReason::kFlowTimeout:
    case WireDropReason::kCount: break;
  }
  if (drop_sink_ != nullptr) drop_sink_->on_wire_drop(frame, reason, at);
}

void WireMac::expire_flows(sim::SimTime now) {
  if (reassembler_.open_conversations() == 0) return;
  for (const CanId id : reassembler_.expire(now)) {
    flow_verdicts_.erase(flow_key_of(id));
    ++stats_.flow_timeouts;
    ++drops_by_reason_[static_cast<std::size_t>(WireDropReason::kFlowTimeout)];
  }
}

bool WireMac::verdict(const Frame& frame, std::int32_t slot,
                      std::uint8_t source, sim::SimTime at) {
  const WireBindingTable::Binding& binding = table_.binding(slot);
  const bool per_source = binding.subject_count == 0;
  ++stats_.adjudicated;
  stats_.sid_requests += per_source ? 1 : binding.subject_count;
  const std::uint32_t index = verdict_base_[static_cast<std::size_t>(slot)] +
                              (per_source ? source : 0u);
  const bool allowed = verdicts_[index] != 0;
  if (!allowed) count_drop(frame, WireDropReason::kPolicyDenied, at);
  return allowed;
}

bool WireMac::ride_flow(const Frame& frame, std::uint64_t key,
                        sim::SimTime at) {
  const auto it = flow_verdicts_.find(key);
  // Conversation open but no verdict: a malformed SF mid-flow is a
  // transport error that erased the verdict while the reassembler kept
  // the flow open, so its next CF lands here. Fail closed.
  if (it == flow_verdicts_.end() || !it->second) {
    count_drop(frame, WireDropReason::kFlowDenied, at);
    return false;
  }
  ++stats_.flow_frames;
  return true;
}

bool WireMac::admit(const Frame& frame, sim::SimTime at) {
  expire_flows(at);
  ++stats_.frames;
  const bool allowed = decide(frame, at);
  if (allowed) ++stats_.allowed;
  return allowed;
}

bool WireMac::decide(const Frame& frame, sim::SimTime at) {
  const CanId id = frame.id();
  std::int32_t slot;
  std::uint8_t source = 0;
  if (!id.is_extended()) {
    slot = table_.standard_slot(id.raw());
  } else {
    const J1939Id j = J1939Id::decompose(id.raw());
    slot = table_.pgn_slot(j.pgn);
    source = j.src;
    if (slot >= 0 && table_.binding(slot).subject_count == 0 &&
        table_.j1939_subject(source) == mac::kNullSid) {
      slot = WireBindingTable::kUnboundSlot;
    }
  }

  if (slot == WireBindingTable::kPassSlot ||
      (slot == WireBindingTable::kUnboundSlot && table_.unbound_allowed())) {
    ++stats_.passed;
    return true;
  }
  if (slot == WireBindingTable::kUnboundSlot) {
    count_drop(frame, WireDropReason::kUnbound, at);
    return false;
  }
  if (!table_.binding(slot).isotp) return verdict(frame, slot, source, at);

  // ISO-TP id: the transport state machine decides whether this frame
  // takes the binding's verdict (SF, FF) or rides the flow's (CF).
  const std::uint64_t key = flow_key_of(id);
  const IsoTpReassembler::Event event = reassembler_.feed(frame, at);
  switch (event.kind) {
    case IsoTpReassembler::EventKind::kMessageComplete: {
      // A whole message in one frame adjudicates like a plain frame; a
      // final CF rides the flow. Either way the id's flow is over.
      if (event.message != nullptr &&
          isotp_frame_type(frame) == IsoTpFrameType::kSingle) {
        flow_verdicts_.erase(key);
        return verdict(frame, slot, source, at);
      }
      const bool ok = ride_flow(frame, key, at);
      flow_verdicts_.erase(key);
      return ok;
    }
    case IsoTpReassembler::EventKind::kPayloadFrame:
      return ride_flow(frame, key, at);
    case IsoTpReassembler::EventKind::kMessageStart: {
      // The FF takes the flow's verdict; its CFs inherit it.
      const bool ok = verdict(frame, slot, source, at);
      flow_verdicts_[key] = ok;
      ++stats_.flow_starts;
      return ok;
    }
    case IsoTpReassembler::EventKind::kError:
      flow_verdicts_.erase(key);
      count_drop(frame, WireDropReason::kMalformedIsoTp, at);
      return false;
    case IsoTpReassembler::EventKind::kNone:
      // Flow control: receiver pacing, carries no adjudicable payload.
      ++stats_.passed;
      return true;
  }
  count_drop(frame, WireDropReason::kMalformedIsoTp, at);
  return false;
}

void WireMac::adjudicate_batch(std::span<const Frame> frames, sim::SimTime at,
                               std::span<std::uint8_t> allowed_out) {
  if (frames.size() != allowed_out.size()) {
    throw std::invalid_argument(
        "WireMac::adjudicate_batch: span lengths differ");
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    allowed_out[i] = admit(frames[i], at) ? 1 : 0;
  }
}

}  // namespace psme::can
