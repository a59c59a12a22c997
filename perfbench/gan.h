#pragma once

/// \file gan.h
/// The GAN training workload: TrainingSession::advance() steps of the
/// bench conditional GAN (hidden 32, batch 32) on seeded walker traces.

#include <cstddef>
#include <cstdint>

#include "report.h"

namespace perfbench {

/// End-to-end run (tracing off) for --seconds: 1-thread passes, then one
/// untimed full-pool pass whose losses must equal theirs.
void measureGan(std::uint64_t seed, double seconds, Report& report);

/// Traced passes of \p steps steps: discriminator pass, generator pass and
/// generator Adam step per advance(), split at the gradient hooks.
/// Untraced and traced 1-thread passes and an untraced full-pool pass
/// repeat for \p pairSeconds (at least once).
TraceSummary traceGan(std::uint64_t seed, std::size_t steps,
                      double pairSeconds, Tracer& tracer, Report& report);

}  // namespace perfbench
