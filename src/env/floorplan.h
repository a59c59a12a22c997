#pragma once

/// \file floorplan.h
/// Room geometry: bounds, walls (for image-method multipath), and static
/// clutter. Presets reproduce the paper's two evaluation environments
/// (Sec. 9.3 / Fig. 8): a 10 x 6.6 m office and a 15.24 x 7.62 m home. The
/// office additionally contains metallic cabinets, which the paper blames
/// for its larger multipath-induced errors.

#include <optional>
#include <string>
#include <vector>

#include "common/vec2.h"
#include "env/scatterer.h"

namespace rfp::env {

/// A reflecting wall segment used for first-order image-method multipath.
struct Wall {
  rfp::common::Vec2 a{};
  rfp::common::Vec2 b{};
  double reflectivity = 0.3;  ///< amplitude fraction of the mirrored path

  /// Mirror image of point \p p across the (infinite extension of the) wall.
  rfp::common::Vec2 mirror(rfp::common::Vec2 p) const;

  /// mirror() with the wall's unit direction \p dir, (b - a).normalized(),
  /// computed by the caller: the same bits without the per-call norm.
  rfp::common::Vec2 mirror(rfp::common::Vec2 p, rfp::common::Vec2 dir) const;

  /// True if the perpendicular foot of \p p lies within the segment; the
  /// image method only creates a specular path in that case.
  bool footWithinSegment(rfp::common::Vec2 p) const;

  /// True if the open segment p0-p1 properly crosses this wall segment.
  /// Used to validate that a mirror image corresponds to a physical bounce
  /// (the observer-to-image ray must pass through the reflecting wall).
  bool segmentIntersects(rfp::common::Vec2 p0, rfp::common::Vec2 p1) const;
};

/// Axis-aligned room with walls and static clutter scatterers.
class FloorPlan {
 public:
  /// Rectangular room [0, width] x [0, height] with four perimeter walls of
  /// the given reflectivity.
  FloorPlan(std::string name, double width, double height,
            double wallReflectivity = 0.3);

  const std::string& name() const { return name_; }
  double width() const { return width_; }
  double height() const { return height_; }

  const std::vector<Wall>& walls() const { return walls_; }
  const std::vector<PointScatterer>& clutter() const { return clutter_; }

  /// Adds an interior wall (e.g. a partition) used for multipath.
  void addWall(Wall w);

  /// Adds a static clutter scatterer (furniture, cabinet, fridge...).
  void addClutter(rfp::common::Vec2 position, double amplitude);

  /// True if \p p lies inside the room bounds.
  bool contains(rfp::common::Vec2 p) const;

  /// Nearest point inside the room bounds (with \p margin from each wall).
  rfp::common::Vec2 clamp(rfp::common::Vec2 p, double margin = 0.0) const;

  /// First-order multipath images of \p s across every wall whose specular
  /// condition holds. Image amplitude = source amplitude * reflectivity *
  /// \p extraLoss. When \p observer is given, an image is kept only if the
  /// observer-to-image segment actually crosses the mirroring wall (the
  /// specular bounce exists geometrically) -- without this check, images of
  /// scatterers near a wall the observer sits behind would imply impossible
  /// shorter-than-direct paths.
  std::vector<PointScatterer> multipathImages(
      const PointScatterer& s, double extraLoss = 1.0,
      std::optional<rfp::common::Vec2> observer = std::nullopt) const;

  /// Appends multipathImages() to \p out, which allocates nothing once
  /// its capacity holds the images. \p s must not refer into \p out: a
  /// growing \p out would move it.
  void appendMultipathImages(const PointScatterer& s, double extraLoss,
                             std::optional<rfp::common::Vec2> observer,
                             std::vector<PointScatterer>& out) const;

  /// The paper's office: 10 x 6.6 m, metallic cabinets (strong clutter,
  /// high-reflectivity wall sections -> more multipath).
  static FloorPlan office();

  /// The paper's home: 15.24 x 7.62 m, furniture clutter, milder multipath.
  static FloorPlan home();

 private:
  std::string name_;
  double width_;
  double height_;
  std::vector<Wall> walls_;
  /// walls_[i]'s unit direction, (b - a).normalized(), set when it is added.
  std::vector<rfp::common::Vec2> wallDirs_;
  std::vector<PointScatterer> clutter_;
};

}  // namespace rfp::env
