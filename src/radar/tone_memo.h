#pragma once

/// \file tone_memo.h
/// Memo of each scatterer's per-antenna tone-chain starts for the FMCW
/// front end (DESIGN.md Sec. 14).
///
/// A scatterer's beat tone at one antenna is fixed by six of its fields
/// and the radar configuration, not by the frame timestamp. Walls,
/// furniture images and repeated ghost poses come back frame after
/// frame, so the front end memoizes the part of their synthesis that
/// does not touch the sample row: the chains the level's tone setup
/// builds (path geometry, the two angles' sin/cos, the chain prologue).
/// Every scatterer, memoized or fresh, then goes through the same chains
/// kernel pass over the row.
///
/// Frame order. The front end looks every scatterer up in list order
/// and pends each miss; one tone setup call then builds the chains of
/// all pending misses, and storePending() stores them. A slot missed in
/// this frame serves no hit until then, so a key repeated later in the
/// same frame is computed again, to the same chains.
///
/// Key contract. A slot is keyed on the exact bit patterns
/// (`std::bit_cast<uint64_t>`) of position.x, position.y, amplitude,
/// radialOffsetM, beatFreqOffsetHz and phaseOffsetRad, compared in full;
/// the hash only picks the slot. The table is valid under one
/// fingerprint of the tone-math configuration and the kernel level, and
/// one antenna count: when either changes, beginFrame empties it.
///
/// Bit-identity. A hit returns the chain starts the front end computed
/// for the same key under the same fingerprint, with the same
/// expressions, so the kernel sees the inputs it would have computed.
/// The memo can change wall-clock only.
///
/// Layout. 128 direct-mapped slots, overwritten on conflict, each
/// holding its key, a nonzero flag, its pending column and numAntennas
/// chains (80 B each), allocated on the first frame.
///
/// Thread-safety: none. One ToneMemo belongs to one scenario's front end
/// and is driven serially from the synthesis call.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "env/scatterer.h"
#include "radar/simd_kernels.h"

namespace rfp::radar {

class ToneMemo {
 public:
  /// Cumulative counts since construction.
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
  };

  static constexpr std::size_t kSlots = 128;  ///< power of two

  /// The slot \p s maps to: the top bits of a multiplicative hash of its
  /// six key fields.
  static std::size_t slotOf(const env::PointScatterer& s);

  /// Starts a frame: allocates the table on the first call and empties
  /// it when \p fingerprint or \p numAntennas differs from the previous
  /// frame's.
  void beginFrame(std::uint64_t fingerprint, std::size_t numAntennas);

  /// Looks \p s up. On a hit sets \p nonzero and, when it is set, copies
  /// the chains of antenna k to out[k * stride]; returns true. On a miss
  /// the slot is re-keyed to \p s and false is returned: the caller
  /// calls pend() for it before the next lookup.
  bool lookup(const env::PointScatterer& s, detail::ToneChain* out,
              std::size_t stride, bool& nonzero);

  /// Records the scatterer the last lookup missed: whether it takes a
  /// column, and which (\p column of the frame's chain array). A
  /// scatterer that takes none is stored at once.
  void pend(bool nonzero, std::size_t column);

  /// Stores the chains of every scatterer pended since beginFrame, read
  /// from in[k * stride + column]. A slot pended twice keeps its last
  /// scatterer's chains.
  void storePending(const detail::ToneChain* in, std::size_t stride);

  /// Per-frame [antenna][scatterer] chain array and miss list of the
  /// front end, kept here so a steady-state frame allocates nothing.
  std::vector<detail::ToneChain>& frameChains() { return frameChains_; }
  detail::ToneMisses& frameMisses() { return frameMisses_; }

  Stats stats() const { return stats_; }

 private:
  /// Bit patterns of the six fields that enter the tone math.
  struct Key {
    std::uint64_t bits[6] = {};
    bool operator==(const Key&) const = default;
  };
  struct Slot {
    Key key;
    bool used = false;  ///< holds its key's chains
    bool nonzero = false;
    std::size_t column = 0;  ///< pending: where its chains are built
  };

  static Key keyOf(const env::PointScatterer& s);
  static std::size_t slotOf(const Key& key);

  std::vector<Slot> slots_;
  std::vector<detail::ToneChain> chains_;  ///< [slot][antenna]
  std::vector<detail::ToneChain> frameChains_;
  detail::ToneMisses frameMisses_;
  std::vector<std::size_t> pendingSlots_;  ///< pended this frame, in order
  std::uint64_t fingerprint_ = 0;
  std::size_t numAntennas_ = 0;
  std::size_t missed_ = 0;  ///< slot of the last miss
  Stats stats_;
};

}  // namespace rfp::radar
