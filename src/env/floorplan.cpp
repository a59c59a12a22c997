#include "env/floorplan.h"

#include <algorithm>
#include <stdexcept>

namespace rfp::env {

using rfp::common::Vec2;

Vec2 Wall::mirror(Vec2 p) const { return mirror(p, (b - a).normalized()); }

Vec2 Wall::mirror(Vec2 p, Vec2 dir) const {
  const Vec2 ap = p - a;
  const double along = ap.dot(dir);
  const Vec2 foot = a + dir * along;
  return foot + (foot - p);
}

bool Wall::footWithinSegment(Vec2 p) const {
  const Vec2 d = b - a;
  const double len2 = d.norm2();
  if (len2 == 0.0) return false;
  const double t = (p - a).dot(d) / len2;
  return t >= 0.0 && t <= 1.0;
}

bool Wall::segmentIntersects(Vec2 p0, Vec2 p1) const {
  const auto orient = [](Vec2 o, Vec2 u, Vec2 v) {
    return (u - o).cross(v - o);
  };
  const double d1 = orient(p0, p1, a);
  const double d2 = orient(p0, p1, b);
  const double d3 = orient(a, b, p0);
  const double d4 = orient(a, b, p1);
  return ((d1 > 0.0) != (d2 > 0.0)) && ((d3 > 0.0) != (d4 > 0.0));
}

FloorPlan::FloorPlan(std::string name, double width, double height,
                     double wallReflectivity)
    : name_(std::move(name)), width_(width), height_(height) {
  if (width <= 0.0 || height <= 0.0) {
    throw std::invalid_argument("FloorPlan: dimensions must be positive");
  }
  const Vec2 c00{0.0, 0.0};
  const Vec2 c10{width, 0.0};
  const Vec2 c11{width, height};
  const Vec2 c01{0.0, height};
  addWall({c00, c10, wallReflectivity});
  addWall({c10, c11, wallReflectivity});
  addWall({c11, c01, wallReflectivity});
  addWall({c01, c00, wallReflectivity});
}

void FloorPlan::addWall(Wall w) {
  walls_.push_back(w);
  wallDirs_.push_back((w.b - w.a).normalized());
}

void FloorPlan::addClutter(Vec2 position, double amplitude) {
  PointScatterer s;
  s.position = position;
  s.amplitude = amplitude;
  s.dynamic = false;
  s.sourceId = kClutterId;
  clutter_.push_back(s);
}

bool FloorPlan::contains(Vec2 p) const {
  return p.x >= 0.0 && p.x <= width_ && p.y >= 0.0 && p.y <= height_;
}

Vec2 FloorPlan::clamp(Vec2 p, double margin) const {
  return {std::clamp(p.x, margin, width_ - margin),
          std::clamp(p.y, margin, height_ - margin)};
}

std::vector<PointScatterer> FloorPlan::multipathImages(
    const PointScatterer& s, double extraLoss,
    std::optional<Vec2> observer) const {
  std::vector<PointScatterer> images;
  appendMultipathImages(s, extraLoss, observer, images);
  return images;
}

void FloorPlan::appendMultipathImages(const PointScatterer& s,
                                      double extraLoss,
                                      std::optional<Vec2> observer,
                                      std::vector<PointScatterer>& out) const {
  for (std::size_t i = 0; i < walls_.size(); ++i) {
    const Wall& w = walls_[i];
    if (w.reflectivity <= 0.0) continue;
    if (!w.footWithinSegment(s.position)) continue;
    PointScatterer img = s;
    img.position = w.mirror(s.position, wallDirs_[i]);
    if (observer.has_value() &&
        !w.segmentIntersects(*observer, img.position)) {
      continue;  // no physical specular bounce from this observer
    }
    img.amplitude = s.amplitude * w.reflectivity * extraLoss * s.multipathGain;
    out.push_back(img);
  }
}

FloorPlan FloorPlan::office() {
  // Paper Fig. 8b: 10.00 m x 6.60 m office. Metal cabinets make the office
  // the harder environment (Sec. 11.1), so walls reflect more strongly and
  // there is strong static clutter.
  FloorPlan plan("office", 10.0, 6.6, /*wallReflectivity=*/0.45);
  // Metallic cabinets along the long wall.
  plan.addClutter({2.0, 6.2}, 1.6);
  plan.addClutter({4.5, 6.2}, 1.8);
  plan.addClutter({7.0, 6.2}, 1.6);
  // Desks and assorted furniture.
  plan.addClutter({3.0, 2.0}, 0.6);
  plan.addClutter({6.5, 3.5}, 0.5);
  plan.addClutter({8.5, 1.5}, 0.6);
  return plan;
}

FloorPlan FloorPlan::home() {
  // Paper Fig. 8c: 15.24 m x 7.62 m (50 ft x 25 ft) home.
  FloorPlan plan("home", 15.24, 7.62, /*wallReflectivity=*/0.30);
  // Typical furniture: sofa, fridge, TV stand, bed.
  plan.addClutter({3.0, 1.0}, 0.7);
  plan.addClutter({12.5, 6.8}, 0.9);  // fridge
  plan.addClutter({7.5, 0.8}, 0.5);
  plan.addClutter({13.5, 2.0}, 0.6);
  return plan;
}

}  // namespace rfp::env
