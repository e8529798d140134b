#include "can/recorder.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace psme::can {

FrameRecorder::FrameRecorder(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("FrameRecorder: capacity must be positive");
  }
}

void FrameRecorder::on_frame(const Frame& frame, sim::SimTime at) {
  if (records_.size() >= capacity_) {
    records_.erase(records_.begin());
    ++dropped_;
  }
  records_.push_back(RecordedFrame{at, frame});
}

std::vector<RecordedFrame> FrameRecorder::filter_by_id(CanId id) const {
  std::vector<RecordedFrame> out;
  for (const auto& record : records_) {
    if (record.frame.id() == id) out.push_back(record);
  }
  return out;
}

std::vector<RecordedFrame> FrameRecorder::between(sim::SimTime from,
                                                  sim::SimTime to) const {
  std::vector<RecordedFrame> out;
  for (const auto& record : records_) {
    if (record.at >= from && record.at <= to) out.push_back(record);
  }
  return out;
}

const RecordedFrame* FrameRecorder::find_first(CanId id) const noexcept {
  for (const auto& record : records_) {
    if (record.frame.id() == id) return &record;
  }
  return nullptr;
}

std::string FrameRecorder::to_csv() const {
  std::ostringstream out;
  out << "time_ns,id,extended,rtr,dlc,data\n";
  for (const auto& record : records_) {
    out << record.at.count() << ",0x" << std::hex << record.frame.id().raw()
        << std::dec << ',' << (record.frame.id().is_extended() ? 1 : 0) << ','
        << (record.frame.is_remote() ? 1 : 0) << ','
        << static_cast<int>(record.frame.dlc()) << ',';
    for (const auto byte : record.frame.data()) {
      out << std::hex << std::setw(2) << std::setfill('0')
          << static_cast<int>(byte);
    }
    out << std::dec << '\n';
  }
  return out.str();
}

Replayer::Replayer(sim::Scheduler& sched, TransmitFn transmit)
    : sched_(sched), transmit_(std::move(transmit)) {
  if (!transmit_) {
    throw std::invalid_argument("Replayer: transmit function required");
  }
}

void Replayer::fire(const Frame& frame) {
  if (transmit_(frame)) {
    ++transmitted_;
  } else {
    ++refused_;
  }
}

std::size_t Replayer::replay(const std::vector<RecordedFrame>& records,
                             double speedup) {
  if (records.empty()) return 0;
  if (speedup <= 0.0) {
    throw std::invalid_argument("Replayer: speedup must be positive");
  }
  const sim::SimTime base = records.front().at;
  for (const auto& record : records) {
    const auto offset_ns = static_cast<std::int64_t>(
        static_cast<double>((record.at - base).count()) / speedup);
    sched_.schedule_in(sim::SimDuration{offset_ns},
                       [this, frame = record.frame] { fire(frame); });
  }
  return records.size();
}

void Replayer::replay_repeated(const Frame& frame, std::uint32_t count,
                               sim::SimDuration spacing) {
  for (std::uint32_t i = 0; i < count; ++i) {
    sched_.schedule_in(spacing * static_cast<std::int64_t>(i),
                       [this, frame] { fire(frame); });
  }
}

}  // namespace psme::can
