#pragma once

/// \file kalman.h
/// Constant-velocity Kalman filter in 2-D. The paper's threat model (Sec. 2)
/// explicitly equips the eavesdropper with "statistical approaches like
/// Kalman Filters" for trajectory extraction; the legitimate sensor and the
/// evaluation harness reuse the same filter.

#include "common/vec2.h"
#include "linalg/small_matrix.h"

namespace rfp::tracking {

/// Filter tuning.
struct KalmanOptions {
  double processNoiseAccel = 1.5;  ///< white-acceleration PSD [m/s^2]
  double measurementNoiseM = 0.15; ///< position sigma [m] (~1 range bin)
  double initialVelocitySigma = 1.5;  ///< prior on unknown velocity [m/s]
};

/// State [x, y, vx, vy] with position-only measurements.
///
/// The algebra runs on linalg::SmallMatrix, whose products and solves
/// take gemm()'s and luSolve()'s steps at the active kernel level
/// (DESIGN.md Sec. 13), so state, covariance and gate distance have the
/// bits of the same filter written on linalg::Matrix (with the default
/// GemmKernel::kTiled).
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

  rfp::common::Vec2 position() const;
  rfp::common::Vec2 velocity() const;

  /// Innovation Mahalanobis distance of a candidate measurement given the
  /// current (predicted) state; used for gating during data association.
  double mahalanobis(rfp::common::Vec2 measuredPosition) const;

  const linalg::SmallMatrix<4, 1>& state() const { return x_; }
  const linalg::SmallMatrix<4, 4>& covariance() const { return p_; }

 private:
  KalmanOptions options_;
  linalg::SmallMatrix<4, 1> x_;  ///< state
  linalg::SmallMatrix<4, 4> p_;  ///< covariance
};

}  // namespace rfp::tracking
