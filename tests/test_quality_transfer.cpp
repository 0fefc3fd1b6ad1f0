#include <gtest/gtest.h>

#include "adapt/collapse.hpp"
#include "adapt/quality.hpp"
#include "adapt/refine.hpp"
#include "adapt/split.hpp"
#include "adapt/transfer.hpp"
#include "common/crc32.hpp"
#include "core/measure.hpp"
#include "core/verify.hpp"
#include "field/field.hpp"
#include "meshgen/boxmesh.hpp"
#include "meshgen/workloads.hpp"

namespace {

using common::Vec3;
using core::Ent;
using core::Topo;

TEST(Quality, EquilateralIsOne) {
  core::Mesh m;
  // Regular tetrahedron.
  const double s = 1.0 / std::sqrt(2.0);
  const Ent v0 = m.createVertex({1, 0, -s});
  const Ent v1 = m.createVertex({-1, 0, -s});
  const Ent v2 = m.createVertex({0, 1, s});
  const Ent v3 = m.createVertex({0, -1, s});
  const Ent tet = m.buildElement(Topo::Tet, std::array{v0, v1, v2, v3});
  EXPECT_NEAR(adapt::quality(m, tet), 1.0, 1e-12);
  // Equilateral triangle.
  core::Mesh m2;
  const Ent a = m2.createVertex({0, 0, 0});
  const Ent b = m2.createVertex({1, 0, 0});
  const Ent c = m2.createVertex({0.5, std::sqrt(3.0) / 2.0, 0});
  const Ent tri = m2.buildElement(Topo::Tri, std::array{a, b, c});
  EXPECT_NEAR(adapt::quality(m2, tri), 1.0, 1e-12);
}

TEST(Quality, SliverScoresLow) {
  core::Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  const Ent v1 = m.createVertex({1, 0, 0});
  const Ent v2 = m.createVertex({0, 1, 0});
  const Ent v3 = m.createVertex({0.33, 0.33, 1e-4});  // nearly coplanar
  const Ent tet = m.buildElement(Topo::Tet, std::array{v0, v1, v2, v3});
  EXPECT_LT(adapt::quality(m, tet), 0.01);
}

TEST(Quality, MeshStats) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const auto s = adapt::meshQuality(*gen.mesh);
  EXPECT_GT(s.min, 0.3);  // Kuhn tets are decent
  EXPECT_GT(s.mean, s.min);
  EXPECT_LE(s.mean, 1.0);
  EXPECT_EQ(s.below_03, 0u);
}

TEST(Smooth, ImprovesJiggledMesh) {
  auto gen = meshgen::boxTets(5, 5, 5);
  common::Rng rng(3);
  meshgen::jiggle(*gen.mesh, 0.25, rng);
  const auto before = adapt::meshQuality(*gen.mesh);
  const auto stats = adapt::smooth(*gen.mesh, []{ adapt::SmoothOptions o; o.passes = 5; return o; }());
  const auto after = adapt::meshQuality(*gen.mesh);
  EXPECT_GT(stats.moved, 0u);
  EXPECT_GE(after.min, before.min);
  EXPECT_GT(after.mean, before.mean);
  core::verify(*gen.mesh, {.check_volumes = true});
  // Volume exactly preserved (only interior vertices move).
  double vol = 0.0;
  for (Ent e : gen.mesh->entities(3)) vol += core::measure(*gen.mesh, e);
  EXPECT_NEAR(vol, 1.0, 1e-9);
}

TEST(Smooth, NeverWorsensWorstQuality) {
  auto gen = meshgen::vessel({.circumferential = 4, .axial = 8});
  common::Rng rng(8);
  meshgen::jiggle(*gen.mesh, 0.2, rng);
  const double worst_before = adapt::meshQuality(*gen.mesh).min;
  adapt::smooth(*gen.mesh, []{ adapt::SmoothOptions o; o.passes = 3; return o; }());
  EXPECT_GE(adapt::meshQuality(*gen.mesh).min, worst_before - 1e-12);
}

// Pinned result of one sweep: the quality guard takes a min over the
// vertex's cavity, so the order in which the cavity is enumerated must
// never change which moves are accepted or where the vertices land.
TEST(Smooth, PinnedSingleSweep) {
  auto gen = meshgen::boxTets(6, 6, 6);
  common::Rng rng(21);
  meshgen::jiggle(*gen.mesh, 0.25, rng);
  adapt::SmoothOptions opts;
  opts.passes = 1;
  const auto stats = adapt::smooth(*gen.mesh, opts);
  std::uint32_t crc = 0;
  for (Ent v : gen.mesh->entities(0))
    crc = common::crc32cOf(gen.mesh->point(v), crc);
  EXPECT_EQ(crc, 199385536u);
  EXPECT_EQ(stats.moved, 101u);
  EXPECT_EQ(stats.rejected, 24u);
}

TEST(Transfer, LinearFieldExactThroughRefinement) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto& m = *gen.mesh;
  field::Field temp(m, "T", field::ValueType::Scalar,
                    field::Location::Vertex);
  auto lin = [](const Vec3& x) { return 3.0 * x.x - x.y + 2.0 * x.z + 1.0; };
  temp.assign(lin);
  adapt::LinearTransfer transfer;
  adapt::refine(m, adapt::UniformSize(0.3),
                {.max_passes = 6, .transfer = &transfer});
  core::verify(m);
  // Every vertex (old and new) carries the exact linear value.
  for (Ent v : m.entities(0)) {
    ASSERT_TRUE(temp.hasValue(v));
    EXPECT_NEAR(temp.getScalar(v), lin(m.point(v)), 1e-9);
  }
}

TEST(Transfer, VectorFieldInterpolated) {
  auto gen = meshgen::boxTets(1, 1, 1);
  auto& m = *gen.mesh;
  field::Field vel(m, "v", field::ValueType::Vector,
                   field::Location::Vertex);
  for (Ent v : m.entities(0)) {
    const Vec3 x = m.point(v);
    vel.setVector(v, {x.x, 2.0 * x.y, -x.z});
  }
  adapt::LinearTransfer transfer;
  const Ent mid = adapt::splitEdge(m, *m.entities(1).begin(), &transfer);
  ASSERT_TRUE(vel.hasValue(mid));
  const Vec3 x = m.point(mid);
  const Vec3 got = vel.getVector(mid);
  EXPECT_NEAR(got.x, x.x, 1e-12);
  EXPECT_NEAR(got.y, 2.0 * x.y, 1e-12);
  EXPECT_NEAR(got.z, -x.z, 1e-12);
}

TEST(Transfer, FilterRestrictsToNamedFields) {
  auto gen = meshgen::boxTets(1, 1, 1);
  auto& m = *gen.mesh;
  field::Field a(m, "a", field::ValueType::Scalar, field::Location::Vertex);
  field::Field b(m, "b", field::ValueType::Scalar, field::Location::Vertex);
  a.fillScalar(1.0);
  b.fillScalar(2.0);
  adapt::LinearTransfer only_a({"a"});
  const Ent mid = adapt::splitEdge(m, *m.entities(1).begin(), &only_a);
  EXPECT_TRUE(a.hasValue(mid));
  EXPECT_FALSE(b.hasValue(mid));
}

TEST(Transfer, SurvivesCoarsening) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto& m = *gen.mesh;
  field::Field temp(m, "T", field::ValueType::Scalar,
                    field::Location::Vertex);
  auto lin = [](const Vec3& x) { return x.x + x.y + x.z; };
  temp.assign(lin);
  adapt::LinearTransfer transfer;
  adapt::refine(m, adapt::UniformSize(0.3),
                {.max_passes = 6, .transfer = &transfer});
  adapt::coarsen(m, adapt::UniformSize(1.0),
                 {.ratio = 0.9, .max_passes = 6, .transfer = &transfer});
  core::verify(m);
  for (Ent v : m.entities(0)) {
    ASSERT_TRUE(temp.hasValue(v));
    EXPECT_NEAR(temp.getScalar(v), lin(m.point(v)), 1e-9);
  }
}

}  // namespace
