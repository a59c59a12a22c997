#include "tracking/kalman.h"

#include <cmath>
#include <stdexcept>

namespace rfp::tracking {

using rfp::common::Vec2;

namespace {

// One axis of the 4x4 filter. Each comment names the 4x4 expression the
// lines below it compute, and `0.0 + t1 + t2` is one entry of that product
// summed as the 4x4 product sums it, from +0 with index k ascending, over
// the terms whose coefficient is not a zero of F, H, R or the cross-axis
// blocks. A skipped term is +0 or -0, and adding it to a sum that started
// at +0 changes no bit (such a sum is never -0). Multiplying by a unit
// entry of F, H or I - K H is exact, so those factors are left out too.

/// White-acceleration process noise of one axis: Q(0,0), Q(0,2) = Q(2,0)
/// and Q(2,2) of the 4x4 filter.
struct AxisNoise {
  double pp;
  double pv;
  double vv;
};

void predictAxis(KalmanAxis& a, double dt, const AxisNoise& q) {
  std::array<double, 4>& p = a.p;
  // x = F x
  a.pos = 0.0 + a.pos + dt * a.vel;
  a.vel = 0.0 + a.vel;
  // F P
  const double fp00 = 0.0 + p[0] + dt * p[2];
  const double fp01 = 0.0 + p[1] + dt * p[3];
  const double fp10 = 0.0 + p[2];
  const double fp11 = 0.0 + p[3];
  // (F P) F^T + Q
  p[0] = (0.0 + fp00 + fp01 * dt) + q.pp;
  p[1] = (0.0 + fp01) + q.pv;
  p[2] = (0.0 + fp10 + fp11 * dt) + q.pv;
  p[3] = (0.0 + fp11) + q.vv;
}

/// Innovation variance H P H^T + R of one axis.
double innovationVariance(const KalmanAxis& a, double r2) {
  return (0.0 + a.p[0]) + r2;
}

void updateAxis(KalmanAxis& a, double z, double r2) {
  std::array<double, 4>& p = a.p;
  const double innovation = z - a.pos;
  // K = P H^T S^-1. luSolve's LU of the diagonal S divides by S(0,0) and
  // S(1,1) alone: every term it would subtract is a product with a +0.
  const double s = innovationVariance(a, r2);
  const double k0 = (0.0 + p[0]) / s;
  const double k1 = (0.0 + p[2]) / s;
  // x = x + K innovation
  a.pos = a.pos + (0.0 + k0 * innovation);
  a.vel = a.vel + (0.0 + k1 * innovation);
  // I - K H
  const double i00 = 1.0 - (0.0 + k0);
  const double i10 = 0.0 - (0.0 + k1);
  // (I - K H) P
  const double a00 = 0.0 + i00 * p[0];
  const double a01 = 0.0 + i00 * p[1];
  const double a10 = 0.0 + i10 * p[0] + p[2];
  const double a11 = 0.0 + i10 * p[1] + p[3];
  // K R
  const double c0 = 0.0 + k0 * r2;
  const double c1 = 0.0 + k1 * r2;
  // Joseph form, (I - K H) P (I - K H)^T + (K R) K^T, keeps the covariance
  // symmetric positive semi-definite.
  p[0] = (0.0 + a00 * i00) + (0.0 + c0 * k0);
  p[1] = (0.0 + a00 * i10 + a01) + (0.0 + c0 * k1);
  p[2] = (0.0 + a10 * i00) + (0.0 + c1 * k0);
  p[3] = (0.0 + a10 * i10 + a11) + (0.0 + c1 * k1);
}

/// One axis's term innovation * S^-1 * innovation of the squared gate.
double gateTerm(const KalmanAxis& a, double z, double r2) {
  const double innovation = z - a.pos;
  return innovation * (innovation / innovationVariance(a, r2));
}

}  // namespace

KalmanFilter2D::KalmanFilter2D(Vec2 initialPosition, KalmanOptions options)
    : options_(options) {
  const double r2 = options_.measurementNoiseM * options_.measurementNoiseM;
  const double v2 =
      options_.initialVelocitySigma * options_.initialVelocitySigma;
  x_.pos = initialPosition.x;
  y_.pos = initialPosition.y;
  x_.p = y_.p = {r2, 0.0, 0.0, v2};
}

void KalmanFilter2D::predict(double dt) {
  if (dt <= 0.0) throw std::invalid_argument("KalmanFilter2D: dt must be > 0");
  const double q = options_.processNoiseAccel * options_.processNoiseAccel;
  const double dt2 = dt * dt;
  const double dt3 = dt2 * dt;
  const double dt4 = dt3 * dt;
  const AxisNoise noise{dt4 / 4.0 * q, dt3 / 2.0 * q, dt2 * q};
  predictAxis(x_, dt, noise);
  predictAxis(y_, dt, noise);
}

void KalmanFilter2D::update(Vec2 z) {
  const double r2 = options_.measurementNoiseM * options_.measurementNoiseM;
  updateAxis(x_, z.x, r2);
  updateAxis(y_, z.y, r2);
}

double KalmanFilter2D::mahalanobis(Vec2 z) const {
  const double r2 = options_.measurementNoiseM * options_.measurementNoiseM;
  return std::sqrt(0.0 + gateTerm(x_, z.x, r2) + gateTerm(y_, z.y, r2));
}

}  // namespace rfp::tracking
