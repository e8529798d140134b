#include "core/update.h"

namespace psme::core {

namespace {

/// Mixes a 64-bit value (splitmix64 finaliser) — used to bind the key to
/// the fingerprint in a way simple XOR would not.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t PolicySigner::sign(const PolicySet& set) const noexcept {
  return mix(set.fingerprint() ^ mix(key_));
}

bool PolicySigner::verify(const PolicySet& set, std::uint64_t tag) const noexcept {
  return sign(set) == tag;
}

std::string_view to_string(UpdateError e) noexcept {
  switch (e) {
    case UpdateError::kBadSignature: return "bad-signature";
    case UpdateError::kVersionRollback: return "version-rollback";
  }
  return "?";
}

UpdateManager::UpdateManager(SimplePolicyEngine& engine, PolicySigner verifier)
    : engine_(engine), verifier_(verifier) {}

std::optional<UpdateError> UpdateManager::apply(const PolicyBundle& bundle) {
  if (!verifier_.verify(bundle.set, bundle.tag)) {
    ++rejected_;
    return UpdateError::kBadSignature;
  }
  if (bundle.version() <= engine_.policy().version()) {
    ++rejected_;
    return UpdateError::kVersionRollback;
  }
  history_.push_back(engine_.policy());
  if (history_.size() > history_limit_) history_.pop_front();
  engine_.load(bundle.set);
  ++applied_;
  return std::nullopt;
}

bool UpdateManager::rollback() {
  if (history_.empty()) return false;
  engine_.load(std::move(history_.back()));
  history_.pop_back();
  return true;
}

std::uint64_t UpdateManager::current_version() const noexcept {
  return engine_.policy().version();
}

UpdateChannel::UpdateChannel(sim::Scheduler& sched, sim::SimDuration latency,
                             double loss_rate, std::uint64_t seed)
    : sched_(sched), latency_(latency), loss_rate_(loss_rate), rng_(seed) {}

std::size_t UpdateChannel::subscribe(DeliveryCallback on_delivery) {
  subscribers_.push_back(std::move(on_delivery));
  return subscribers_.size() - 1;
}

void UpdateChannel::publish(PolicyBundle bundle) {
  ++published_;
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    deliver(i, bundle, 1);
  }
}

void UpdateChannel::deliver(std::size_t subscriber, PolicyBundle bundle,
                            std::uint32_t attempt) {
  sched_.schedule_in(latency_, [this, subscriber, bundle, attempt] {
    if (rng_.chance(loss_rate_)) {
      if (attempt >= max_attempts_) {
        ++lost_;
        return;
      }
      deliver(subscriber, bundle, attempt + 1);
      return;
    }
    ++delivered_;
    subscribers_[subscriber](bundle);
  });
}

}  // namespace psme::core
