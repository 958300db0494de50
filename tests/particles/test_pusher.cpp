#include "particles/pusher.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace picpar::particles {
namespace {

TEST(BorisKick, PureElectricFieldAccelerates) {
  LocalFields f;
  f.ex = 1.0;
  double ux = 0.0, uy = 0.0, uz = 0.0;
  boris_kick(-1.0, 1.0, 0.1, f, ux, uy, uz);
  // du = q E dt for the full step (two half kicks, no rotation).
  EXPECT_NEAR(ux, -0.1, 1e-12);
  EXPECT_DOUBLE_EQ(uy, 0.0);
  EXPECT_DOUBLE_EQ(uz, 0.0);
}

TEST(BorisKick, MagneticFieldPreservesMomentumMagnitude) {
  LocalFields f;
  f.bz = 2.0;
  double ux = 0.3, uy = 0.0, uz = 0.1;
  const double u0 = std::sqrt(ux * ux + uy * uy + uz * uz);
  for (int i = 0; i < 1000; ++i) boris_kick(-1.0, 1.0, 0.05, f, ux, uy, uz);
  const double u1 = std::sqrt(ux * ux + uy * uy + uz * uz);
  EXPECT_NEAR(u1, u0, 1e-12) << "pure rotation must conserve |u| exactly";
}

TEST(BorisKick, GyrationFrequencyMatchesAnalytic) {
  // Non-relativistic limit: omega_c = qB/m. Track the rotation angle of u
  // over one step and compare with 2*atan(omega_c dt / 2) (Boris rotation).
  LocalFields f;
  f.bz = 1.0;
  const double dt = 0.1;
  double ux = 0.01, uy = 0.0, uz = 0.0;  // tiny => gamma ~ 1
  boris_kick(1.0, 1.0, dt, f, ux, uy, uz);
  const double angle = std::atan2(uy, ux);
  const double expected = -2.0 * std::atan(0.5 * dt);  // q>0, Bz>0: clockwise
  EXPECT_NEAR(angle, expected, 1e-5);  // |u|=0.01 shifts gamma by ~5e-5
}

TEST(BorisKick, ExBDriftVelocity) {
  // Crossed fields E = (0.01, 0, 0), B = (0, 0, 1): guiding center drifts
  // at v_d = E x B / B^2 = (0, -0.01, 0). Average velocity over many
  // gyro-periods approaches the drift.
  LocalFields f;
  f.ex = 0.01;
  f.bz = 1.0;
  double ux = 0.0, uy = 0.0, uz = 0.0;
  const double dt = 0.05;
  double sum_vy = 0.0;
  const int steps = 20000;
  for (int i = 0; i < steps; ++i) {
    boris_kick(-1.0, 1.0, dt, f, ux, uy, uz);
    const double gamma = std::sqrt(1.0 + ux * ux + uy * uy + uz * uz);
    sum_vy += uy / gamma;
  }
  EXPECT_NEAR(sum_vy / steps, -0.01, 1e-3);
}

TEST(BorisKick, RelativisticSpeedStaysBelowC) {
  LocalFields f;
  f.ex = 100.0;
  double ux = 0.0, uy = 0.0, uz = 0.0;
  for (int i = 0; i < 100; ++i) boris_kick(-1.0, 1.0, 0.1, f, ux, uy, uz);
  const double gamma = std::sqrt(1.0 + ux * ux + uy * uy + uz * uz);
  const double v = std::abs(ux) / gamma;
  EXPECT_LT(v, 1.0);
  EXPECT_GT(gamma, 10.0);  // strongly relativistic by now
}

TEST(BorisKick, ZeroFieldsAreNoOp) {
  LocalFields f;
  double ux = 0.4, uy = -0.2, uz = 0.1;
  boris_kick(-1.0, 1.0, 0.1, f, ux, uy, uz);
  EXPECT_DOUBLE_EQ(ux, 0.4);
  EXPECT_DOUBLE_EQ(uy, -0.2);
  EXPECT_DOUBLE_EQ(uz, 0.1);
}

TEST(AdvancePosition, MovesByVelocityOverGamma) {
  mesh::GridDesc g(10, 10);
  ParticleArray p(-1.0, 1.0);
  ParticleRec r;
  r.x = 5.0;
  r.y = 5.0;
  r.ux = 3.0;  // gamma = sqrt(10), vx = 3/sqrt(10)
  p.push_back(r);
  advance_position(g, p, 0, 1.0);
  EXPECT_NEAR(p.x[0], 5.0 + 3.0 / std::sqrt(10.0), 1e-12);
  EXPECT_DOUBLE_EQ(p.y[0], 5.0);
}

TEST(AdvancePosition, WrapsPeriodically) {
  mesh::GridDesc g(10, 10);
  ParticleArray p(-1.0, 1.0);
  ParticleRec r;
  r.x = 9.9;
  r.y = 0.05;
  r.ux = 10.0;   // v ~ 0.995
  r.uy = -10.0;  // v ~ -0.995 (same gamma)
  p.push_back(r);
  advance_position(g, p, 0, 1.0);
  EXPECT_GE(p.x[0], 0.0);
  EXPECT_LT(p.x[0], 10.0);
  EXPECT_GE(p.y[0], 0.0);
  EXPECT_LT(p.y[0], 10.0);
}

}  // namespace
}  // namespace picpar::particles
