#include <gtest/gtest.h>

#include "meshgen/boxmesh.hpp"
#include "meshgen/workloads.hpp"
#include <unordered_set>

#include "common/crc32.hpp"
#include "part/coloring.hpp"

namespace {

using part::ColorRelation;

struct ColorCase {
  int nx, ny, nz;
  ColorRelation relation;
};

class ColoringGrids : public ::testing::TestWithParam<ColorCase> {};

TEST_P(ColoringGrids, ValidAndCovering) {
  const auto [nx, ny, nz, relation] = GetParam();
  auto gen = meshgen::boxTets(nx, ny, nz);
  const auto c = part::colorElements(*gen.mesh, relation);
  EXPECT_EQ(c.color.size(), gen.mesh->count(3));
  EXPECT_GT(c.colors, 0);
  EXPECT_NO_THROW(part::verifyColoring(*gen.mesh, c, relation));
  // Every color class is non-empty and they partition the elements.
  std::size_t total = 0;
  for (int k = 0; k < c.colors; ++k) {
    const auto members = c.members(k);
    EXPECT_FALSE(members.empty()) << "color " << k;
    total += members.size();
  }
  EXPECT_EQ(total, gen.mesh->count(3));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ColoringGrids,
    ::testing::Values(ColorCase{2, 2, 2, ColorRelation::SharedVertex},
                      ColorCase{4, 3, 2, ColorRelation::SharedVertex},
                      ColorCase{2, 2, 2, ColorRelation::SharedFace},
                      ColorCase{4, 3, 2, ColorRelation::SharedFace}),
    [](const auto& info) {
      return std::to_string(info.param.nx) + std::to_string(info.param.ny) +
             std::to_string(info.param.nz) +
             (info.param.relation == ColorRelation::SharedVertex ? "_vtx"
                                                                 : "_face");
    });

TEST(Coloring, FaceRelationNeedsFewerColors) {
  auto gen = meshgen::boxTets(4, 4, 4);
  const auto by_vertex =
      part::colorElements(*gen.mesh, ColorRelation::SharedVertex);
  const auto by_face =
      part::colorElements(*gen.mesh, ColorRelation::SharedFace);
  // A tet has at most 4 face neighbours but dozens of vertex neighbours.
  EXPECT_LT(by_face.colors, by_vertex.colors);
  EXPECT_LE(by_face.colors, 6);
}

TEST(Coloring, SharedVertexAllowsConcurrentNodalAssembly) {
  // The property the decomposition exists for: within one color, no two
  // elements touch the same vertex, so threads can scatter nodal values
  // without atomics.
  auto gen = meshgen::boxTets(3, 3, 3);
  const auto c =
      part::colorElements(*gen.mesh, ColorRelation::SharedVertex);
  std::vector<core::Ent> elems = gen.mesh->all(3);
  for (int k = 0; k < c.colors; ++k) {
    std::unordered_set<core::Ent, core::EntHash> touched;
    for (std::size_t i : c.members(k)) {
      for (core::Ent v : gen.mesh->verts(elems[i])) {
        EXPECT_TRUE(touched.insert(v).second)
            << "vertex touched twice within color " << k;
      }
    }
  }
}

TEST(Coloring, TwoDimensionalMesh) {
  auto gen = meshgen::boxTris(6, 6);
  const auto c = part::colorElements(*gen.mesh, ColorRelation::SharedVertex);
  part::verifyColoring(*gen.mesh, c, ColorRelation::SharedVertex);
  EXPECT_GE(c.colors, 3);  // triangles around a vertex need >= its degree
}

TEST(Coloring, DeterministicAcrossRuns) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const auto a = part::colorElements(*gen.mesh);
  const auto b = part::colorElements(*gen.mesh);
  EXPECT_EQ(a.color, b.color);
  EXPECT_EQ(a.colors, b.colors);
}

// Pinned colour vectors: the greedy pass only tests membership in each
// element's conflict list, so the order in which adjacency is enumerated
// must never change the colours.
TEST(Coloring, PinnedColorVectors) {
  auto gen = meshgen::boxTets(6, 6, 6);
  const auto crcOf = [](const part::Coloring& c) {
    return common::crc32c(reinterpret_cast<const std::byte*>(c.color.data()),
                          c.color.size() * sizeof(int));
  };
  const auto by_vertex =
      part::colorElements(*gen.mesh, ColorRelation::SharedVertex);
  const auto by_face = part::colorElements(*gen.mesh, ColorRelation::SharedFace);
  EXPECT_EQ(crcOf(by_vertex), 2410617492u);
  EXPECT_EQ(crcOf(by_face), 2087998672u);
  EXPECT_EQ(by_vertex.colors, 28);
  EXPECT_EQ(by_face.colors, 4);
}

}  // namespace
