#include "env/environment.h"

namespace rfp::env {

int Environment::addHuman(TimedPath path, BreathingModel breathing,
                          double baseAmplitude) {
  const int id = static_cast<int>(humans_.size());
  humans_.emplace_back(id, std::move(path), breathing, baseAmplitude);
  return id;
}

std::vector<PointScatterer> Environment::snapshot(
    double t, rfp::common::Rng& rng, const SnapshotOptions& opts) const {
  std::vector<PointScatterer> out;
  snapshotInto(out, t, rng, opts);
  return out;
}

void Environment::snapshotInto(std::vector<PointScatterer>& out, double t,
                               rfp::common::Rng& rng,
                               const SnapshotOptions& opts) const {
  out.clear();
  // Each human's draws on the caller's Rng, in human order (the
  // seeded-stream contract), then its wall images, which are geometry
  // only. The primary is a local copy: a reference into out would dangle
  // when the images grow it.
  for (const Human& h : humans_) {
    const PointScatterer primary = h.scatterAt(t, rng, opts.rcsJitter);
    out.push_back(primary);
    if (opts.includeMultipath) {
      plan_.appendMultipathImages(primary, opts.multipathLoss,
                                  opts.multipathObserver, out);
    }
  }

  if (opts.includeClutter) {
    for (const PointScatterer& c : plan_.clutter()) out.push_back(c);
  }
}

}  // namespace rfp::env
