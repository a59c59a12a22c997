#pragma once

/// \file det_hash.h
/// Stateless deterministic hashing for per-frame (and per-attempt)
/// pseudo-randomness. Components that must stay reproducible and
/// query-order independent -- the fault timeline, the control-link channel
/// model -- derive every random decision as a pure function of
/// (seed, frame, stream) instead of consuming a sequential generator, so
/// querying frame 100 before frame 5 changes nothing.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

namespace rfp::common {

/// splitmix64: the standard 64-bit finalizer.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform in [0, 1) for (seed, frame, stream).
inline double hashUniform(std::uint64_t seed, std::uint64_t frame,
                          std::uint64_t stream) {
  const std::uint64_t h = splitmix64(seed ^ splitmix64(frame + 1) ^
                                     (stream * 0xd6e8feb86659fd93ull));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Deterministic zero-mean sample scaled to unit variance (uniform base);
/// good enough for timing-jitter models.
inline double hashJitter(std::uint64_t seed, std::uint64_t frame,
                         std::uint64_t stream) {
  return (2.0 * hashUniform(seed, frame, stream) - 1.0) * 1.7320508075688772;
}

/// Deterministic integer in [0, 2^64) for (seed, frame, stream); used where
/// a bit position or index is needed rather than a probability.
inline std::uint64_t hashBits(std::uint64_t seed, std::uint64_t frame,
                              std::uint64_t stream) {
  return splitmix64(seed ^ splitmix64(frame + 1) ^
                    (stream * 0xd6e8feb86659fd93ull));
}

/// Deterministic pair of independent standard-normal samples for
/// (seed, frame, stream), via libm Box-Muller over two hashUniform draws.
/// This is the sse2-level receiver-noise primitive
/// (signal::detail::awgnAccumScalar); the FMA levels draw the same two
/// uniforms and evaluate Box-Muller with a fixed polynomial chain instead
/// (signal/noise_kernels.h). Either way every (chirp, antenna, sample)
/// noise value is a pure function of its coordinates within one kernel
/// level, so synthesis order -- and thread count -- cannot change the
/// realization (DESIGN.md Sec. 8).
inline std::pair<double, double> hashGaussianPair(std::uint64_t seed,
                                                  std::uint64_t frame,
                                                  std::uint64_t stream) {
  // Floor u1 away from 0 so the log stays finite; the bias is far below
  // double resolution of the output.
  const double u1 =
      std::max(hashUniform(seed, frame, 2 * stream), 0x1.0p-53);
  const double u2 = hashUniform(seed, frame, 2 * stream + 1);
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double phi = 2.0 * 3.14159265358979323846 * u2;
  return {r * std::cos(phi), r * std::sin(phi)};
}

}  // namespace rfp::common
