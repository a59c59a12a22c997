#pragma once

/// \file fft.h
/// Iterative radix-2 complex FFT. The radar processing pipeline uses this
/// for range FFTs (paper Sec. 3: reflections are separated by a Fourier
/// transform at resolution C / 2B).
///
/// Twiddle factors and the bit-reversal permutation are precomputed once
/// per FFT size and shared through a process-wide cache (see fftPlanFor),
/// so per-chirp transforms stop re-deriving them. All entry points are
/// thread-safe and deterministic: concurrent transforms of the same size
/// share one immutable plan, and a cached transform is bit-identical to an
/// uncached one because the table is filled by the same recurrence the
/// uncached butterfly used.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace rfp::signal {

using Complex = std::complex<double>;

/// Smallest power of two >= n (and >= 1).
std::size_t nextPowerOfTwo(std::size_t n);

/// Everything a transform of one power-of-two length n >= 2 needs besides
/// the data, built once per length.
struct FftPlan {
  std::size_t n = 0;
  /// Forward twiddles: for every butterfly stage of length L (2, 4, ...,
  /// n) the L/2 unit phasors W_L^k, stored contiguously at offset
  /// L/2 - 1 (n - 1 entries in total). The inverse transform conjugates
  /// them on the fly.
  std::vector<Complex> twiddles;
  /// bitReverse[i] = i with its log2(n) bits reversed.
  std::vector<std::uint32_t> bitReverse;
  /// The pairs (i, bitReverse[i]) with i < bitReverse[i], ascending in i:
  /// the swaps that put data in bit-reversed order, without a branch per
  /// index.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;
};

/// The plan for length \p n, from a process-wide LRU cache: built once
/// per size and shared (immutable) between threads, so a caller that
/// keeps the pointer transforms without taking the cache's lock. Throws
/// std::invalid_argument unless \p n is a power of two >= 2.
std::shared_ptr<const FftPlan> fftPlanFor(std::size_t n);

/// In-place forward FFT. The length must be a power of two; throws
/// std::invalid_argument otherwise. Unnormalized (sum convention).
void fftInPlace(std::vector<Complex>& data);

/// Forward FFT of the windowed, zero-padded \p samples into \p out
/// (plan.n entries): writes samples[i] * window[i] straight to its
/// bit-reversed slot, +0 to every other slot, then runs the butterfly
/// stages. Bit-identical to copy + applyWindow + zero fill + fftInPlace.
/// Throws std::invalid_argument unless window.size() == samples.size()
/// <= plan.n == out.size().
void fftWindowedInto(const FftPlan& plan, std::span<const Complex> samples,
                     std::span<const double> window, std::span<Complex> out);

/// In-place inverse FFT (normalized by 1/N).
void ifftInPlace(std::vector<Complex>& data);

/// Forward FFT of \p input zero-padded to \p size (power of two; pass 0 to
/// use nextPowerOfTwo(input.size())).
std::vector<Complex> fft(std::span<const Complex> input, std::size_t size = 0);

/// Inverse FFT returning a new vector.
std::vector<Complex> ifft(std::span<const Complex> input);

/// Magnitude of each FFT bin.
std::vector<double> magnitude(std::span<const Complex> spectrum);

/// Power of each FFT bin in decibels: 20*log10(|X| + eps).
std::vector<double> powerDb(std::span<const Complex> spectrum,
                            double eps = 1e-12);

/// Index of the bin with the largest magnitude in [first, last).
std::size_t peakBin(std::span<const Complex> spectrum, std::size_t first = 0,
                    std::size_t last = 0);

/// Refines a spectral peak location to sub-bin precision by fitting a
/// parabola through the log-magnitudes of the peak bin and its neighbors.
/// Returns the fractional bin index. \p bin must be an interior bin.
double parabolicPeakInterpolation(std::span<const Complex> spectrum,
                                  std::size_t bin);

}  // namespace rfp::signal
