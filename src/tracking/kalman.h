#pragma once

/// \file kalman.h
/// Constant-velocity Kalman filter in 2-D. The paper's threat model (Sec. 2)
/// explicitly equips the eavesdropper with "statistical approaches like
/// Kalman Filters" for trajectory extraction; the legitimate sensor and the
/// evaluation harness reuse the same filter.

#include <array>

#include "common/vec2.h"

namespace rfp::tracking {

/// Filter tuning.
struct KalmanOptions {
  double processNoiseAccel = 1.5;  ///< white-acceleration PSD [m/s^2]
  double measurementNoiseM = 0.15; ///< position sigma [m] (~1 range bin)
  double initialVelocitySigma = 1.5;  ///< prior on unknown velocity [m/s]
};

/// Position and velocity along one axis with their covariance, row-major
/// with position first: p = {var(pos), cov(pos, vel), cov(vel, pos),
/// var(vel)}. The two off-diagonal entries are kept apart because the
/// filter's arithmetic does not round them alike.
struct KalmanAxis {
  double pos = 0.0;
  double vel = 0.0;
  std::array<double, 4> p{};
};

/// State [x, y, vx, vy] with position-only measurements.
///
/// The model, noise and measurement matrices are block diagonal per axis,
/// so the 4x4 filter is two independent (position, velocity) filters. Each
/// runs in plain double arithmetic: every entry sums the nonzero terms of
/// its 4x4 product in that product's order, from a +0 start, which gives
/// the 4x4 filter's bits as linalg::Matrix computes them at the sse2
/// kernel level, zero signs included, whatever level is active. The
/// cross-axis entries the 4x4 filter carries are exactly +0 throughout.
class KalmanFilter2D {
 public:
  /// Initializes at a first measured position with zero velocity and a
  /// broad velocity prior.
  KalmanFilter2D(rfp::common::Vec2 initialPosition, KalmanOptions options = {});

  /// Time propagation by \p dt seconds (constant-velocity model with
  /// white-acceleration process noise).
  void predict(double dt);

  /// Measurement update with an observed position.
  void update(rfp::common::Vec2 measuredPosition);

  rfp::common::Vec2 position() const { return {x_.pos, y_.pos}; }
  rfp::common::Vec2 velocity() const { return {x_.vel, y_.vel}; }

  /// Innovation Mahalanobis distance of a candidate measurement given the
  /// current (predicted) state; used for gating during data association.
  double mahalanobis(rfp::common::Vec2 measuredPosition) const;

  const KalmanAxis& xAxis() const { return x_; }
  const KalmanAxis& yAxis() const { return y_; }

 private:
  KalmanOptions options_;
  KalmanAxis x_;
  KalmanAxis y_;
};

}  // namespace rfp::tracking
