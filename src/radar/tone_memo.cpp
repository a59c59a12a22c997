#include "radar/tone_memo.h"

#include <bit>

namespace rfp::radar {

ToneMemo::Key ToneMemo::keyOf(const env::PointScatterer& s) {
  return {{std::bit_cast<std::uint64_t>(s.position.x),
           std::bit_cast<std::uint64_t>(s.position.y),
           std::bit_cast<std::uint64_t>(s.amplitude),
           std::bit_cast<std::uint64_t>(s.radialOffsetM),
           std::bit_cast<std::uint64_t>(s.beatFreqOffsetHz),
           std::bit_cast<std::uint64_t>(s.phaseOffsetRad)}};
}

std::size_t ToneMemo::slotOf(const Key& key) {
  constexpr int kShift = 64 - std::countr_zero(kSlots);
  std::uint64_t h = 0;
  for (const std::uint64_t bits : key.bits) {
    h = (h ^ bits) * 0x9e3779b97f4a7c15ull;
  }
  return static_cast<std::size_t>(h >> kShift);
}

std::size_t ToneMemo::slotOf(const env::PointScatterer& s) {
  return slotOf(keyOf(s));
}

void ToneMemo::beginFrame(std::uint64_t fingerprint,
                          std::size_t numAntennas) {
  pendingSlots_.clear();
  if (!slots_.empty() && fingerprint == fingerprint_ &&
      numAntennas == numAntennas_) {
    return;
  }
  slots_.assign(kSlots, Slot{});
  chains_.assign(kSlots * numAntennas, detail::ToneChain{});
  pendingSlots_.reserve(kSlots);
  fingerprint_ = fingerprint;
  numAntennas_ = numAntennas;
}

bool ToneMemo::lookup(const env::PointScatterer& s, detail::ToneChain* out,
                      std::size_t stride, bool& nonzero) {
  const Key key = keyOf(s);
  missed_ = slotOf(key);
  Slot& slot = slots_[missed_];
  ++stats_.lookups;
  if (slot.used && slot.key == key) {
    ++stats_.hits;
    nonzero = slot.nonzero;
    if (nonzero) {
      const detail::ToneChain* chains =
          chains_.data() + missed_ * numAntennas_;
      for (std::size_t k = 0; k < numAntennas_; ++k) {
        out[k * stride] = chains[k];
      }
    }
    return true;
  }
  slot.key = key;
  slot.used = false;  // until pend() or storePending()
  return false;
}

void ToneMemo::pend(bool nonzero, std::size_t column) {
  Slot& slot = slots_[missed_];
  slot.nonzero = nonzero;
  slot.column = column;
  if (nonzero) {
    pendingSlots_.push_back(missed_);
  } else {
    slot.used = true;
  }
}

void ToneMemo::storePending(const detail::ToneChain* in, std::size_t stride) {
  for (const std::size_t index : pendingSlots_) {
    Slot& slot = slots_[index];
    if (slot.used) continue;  // stored already, or re-keyed to a zero tone
    slot.used = true;
    detail::ToneChain* chains = chains_.data() + index * numAntennas_;
    for (std::size_t k = 0; k < numAntennas_; ++k) {
      chains[k] = in[k * stride + slot.column];
    }
  }
  pendingSlots_.clear();
}

}  // namespace rfp::radar
