#include "tracking/kalman.h"

#include <cmath>
#include <stdexcept>

namespace rfp::tracking {

using rfp::common::Vec2;

namespace {

template <std::size_t R, std::size_t C>
using Mat = linalg::SmallMatrix<R, C>;

Mat<4, 4> transitionMatrix(double dt) {
  Mat<4, 4> f = Mat<4, 4>::identity();
  f(0, 2) = dt;
  f(1, 3) = dt;
  return f;
}

/// Process noise for a white-acceleration (piecewise constant) model.
Mat<4, 4> processNoise(double dt, double accelSigma) {
  const double q = accelSigma * accelSigma;
  const double dt2 = dt * dt;
  const double dt3 = dt2 * dt;
  const double dt4 = dt3 * dt;
  Mat<4, 4> qm;
  qm(0, 0) = qm(1, 1) = dt4 / 4.0 * q;
  qm(0, 2) = qm(2, 0) = dt3 / 2.0 * q;
  qm(1, 3) = qm(3, 1) = dt3 / 2.0 * q;
  qm(2, 2) = qm(3, 3) = dt2 * q;
  return qm;
}

Mat<2, 4> measurementMatrix() {
  Mat<2, 4> h;
  h(0, 0) = 1.0;
  h(1, 1) = 1.0;
  return h;
}

}  // namespace

KalmanFilter2D::KalmanFilter2D(Vec2 initialPosition, KalmanOptions options)
    : options_(options) {
  x_(0, 0) = initialPosition.x;
  x_(1, 0) = initialPosition.y;
  const double r2 = options_.measurementNoiseM * options_.measurementNoiseM;
  const double v2 =
      options_.initialVelocitySigma * options_.initialVelocitySigma;
  p_(0, 0) = p_(1, 1) = r2;
  p_(2, 2) = p_(3, 3) = v2;
}

void KalmanFilter2D::predict(double dt) {
  if (dt <= 0.0) throw std::invalid_argument("KalmanFilter2D: dt must be > 0");
  const Mat<4, 4> f = transitionMatrix(dt);
  x_ = f * x_;
  p_ = f * p_ * f.transposed() + processNoise(dt, options_.processNoiseAccel);
}

void KalmanFilter2D::update(Vec2 z) {
  const Mat<2, 4> h = measurementMatrix();
  const double r2 = options_.measurementNoiseM * options_.measurementNoiseM;
  const Mat<2, 2> r = Mat<2, 2>::identity() * r2;

  Mat<2, 1> innovation;
  innovation(0, 0) = z.x - x_(0, 0);
  innovation(1, 0) = z.y - x_(1, 0);

  const Mat<2, 2> s = h * p_ * h.transposed() + r;
  // K = P H^T S^-1 computed as solving S^T X^T = (P H^T)^T for X.
  const Mat<4, 2> pht = p_ * h.transposed();
  const Mat<4, 2> k =
      linalg::luSolve(s.transposed(), pht.transposed()).transposed();

  x_ = x_ + k * innovation;
  const Mat<4, 4> ikh = Mat<4, 4>::identity() - k * h;
  // Joseph form keeps the covariance symmetric positive semi-definite.
  p_ = ikh * p_ * ikh.transposed() + k * r * k.transposed();
}

Vec2 KalmanFilter2D::position() const { return {x_(0, 0), x_(1, 0)}; }

Vec2 KalmanFilter2D::velocity() const { return {x_(2, 0), x_(3, 0)}; }

double KalmanFilter2D::mahalanobis(Vec2 z) const {
  const Mat<2, 4> h = measurementMatrix();
  const double r2 = options_.measurementNoiseM * options_.measurementNoiseM;
  const Mat<2, 2> s = h * p_ * h.transposed() + Mat<2, 2>::identity() * r2;
  Mat<2, 1> innovation;
  innovation(0, 0) = z.x - x_(0, 0);
  innovation(1, 0) = z.y - x_(1, 0);
  const Mat<2, 1> sol = linalg::luSolve(s, innovation);
  const Mat<1, 1> d2 = innovation.transposed() * sol;
  return std::sqrt(d2(0, 0));
}

}  // namespace rfp::tracking
