#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/integrity.hpp"
#include "core/measure.hpp"
#include "core/mesh.hpp"
#include "core/topo.hpp"
#include "core/verify.hpp"

namespace {

using core::Ent;
using core::Mesh;
using core::Topo;
using common::Vec3;

/// Reference element coordinates for each 3D type.
std::vector<Vec3> referenceCoords(Topo t) {
  switch (t) {
    case Topo::Tet:
      return {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    case Topo::Hex:
      return {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
              {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};
    case Topo::Prism:
      return {{0, 0, 0}, {1, 0, 0}, {0, 1, 0},
              {0, 0, 1}, {1, 0, 1}, {0, 1, 1}};
    case Topo::Pyramid:
      return {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0.5, 0.5, 1}};
    default:
      return {};
  }
}

TEST(Topo, TableShapes) {
  EXPECT_EQ(core::topoDim(Topo::Vertex), 0);
  EXPECT_EQ(core::topoDim(Topo::Edge), 1);
  EXPECT_EQ(core::topoDim(Topo::Tri), 2);
  EXPECT_EQ(core::topoDim(Topo::Hex), 3);
  EXPECT_EQ(core::topoVertexCount(Topo::Tet), 4);
  EXPECT_EQ(core::topoVertexCount(Topo::Hex), 8);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Tet, 1), 6);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Tet, 2), 4);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Hex, 1), 12);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Prism, 2), 5);
  EXPECT_EQ(core::topoBoundaryCount(Topo::Pyramid, 2), 5);
  EXPECT_STREQ(core::topoName(Topo::Prism), "prism");
}

TEST(Topo, EveryBoundaryVertexIndexInRange) {
  for (Topo t : {Topo::Tri, Topo::Quad, Topo::Tet, Topo::Hex, Topo::Prism,
                 Topo::Pyramid}) {
    const int dim = core::topoDim(t);
    const int nv = core::topoVertexCount(t);
    for (int d = 0; d < dim; ++d) {
      for (int i = 0; i < core::topoBoundaryCount(t, d); ++i) {
        const auto idxs = core::topoBoundaryVerts(t, d, i);
        EXPECT_EQ(static_cast<int>(idxs.size()),
                  core::topoVertexCount(core::topoBoundaryTopo(t, d, i)));
        for (int idx : idxs) {
          EXPECT_GE(idx, 0);
          EXPECT_LT(idx, nv);
        }
      }
    }
  }
}

TEST(Topo, EdgesOfFacesAreFaceBoundary) {
  // Property: every region's face template's edges appear in the region's
  // edge template (closure consistency).
  for (Topo t : {Topo::Tet, Topo::Hex, Topo::Prism, Topo::Pyramid}) {
    std::set<std::set<int>> region_edges;
    for (int i = 0; i < core::topoBoundaryCount(t, 1); ++i) {
      const auto e = core::topoBoundaryVerts(t, 1, i);
      region_edges.insert({e[0], e[1]});
    }
    for (int f = 0; f < core::topoBoundaryCount(t, 2); ++f) {
      const Topo ft = core::topoBoundaryTopo(t, 2, f);
      const auto fverts = core::topoBoundaryVerts(t, 2, f);
      for (int fe = 0; fe < core::topoBoundaryCount(ft, 1); ++fe) {
        const auto fev = core::topoBoundaryVerts(ft, 1, fe);
        const std::set<int> edge{fverts[fev[0]], fverts[fev[1]]};
        EXPECT_TRUE(region_edges.count(edge))
            << "face edge not an element edge for " << core::topoName(t);
      }
    }
  }
}

class SingleElement : public ::testing::TestWithParam<Topo> {};

TEST_P(SingleElement, BuildCreatesFullClosure) {
  const Topo t = GetParam();
  Mesh m;
  std::vector<Ent> vs;
  for (const Vec3& p : referenceCoords(t)) vs.push_back(m.createVertex(p));
  const Ent e = m.buildElement(t, vs);
  ASSERT_TRUE(m.alive(e));
  EXPECT_EQ(m.count(0), static_cast<std::size_t>(core::topoVertexCount(t)));
  EXPECT_EQ(m.count(1), static_cast<std::size_t>(core::topoBoundaryCount(t, 1)));
  EXPECT_EQ(m.count(2), static_cast<std::size_t>(core::topoBoundaryCount(t, 2)));
  EXPECT_EQ(m.count(3), 1u);
  EXPECT_NO_THROW(core::verify(m, {.check_volumes = true}));
}

TEST_P(SingleElement, DownwardCanonicalOrder) {
  const Topo t = GetParam();
  Mesh m;
  std::vector<Ent> vs;
  for (const Vec3& p : referenceCoords(t)) vs.push_back(m.createVertex(p));
  const Ent e = m.buildElement(t, vs);
  std::array<Ent, core::kMaxDown> buf{};
  // Vertices come back in canonical order.
  const int nv = m.downward(e, 0, buf.data());
  ASSERT_EQ(nv, core::topoVertexCount(t));
  for (int i = 0; i < nv; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i)], vs[static_cast<std::size_t>(i)]);
  // Edges match templates.
  const int ne = m.downward(e, 1, buf.data());
  ASSERT_EQ(ne, core::topoBoundaryCount(t, 1));
  for (int i = 0; i < ne; ++i) {
    const auto idxs = core::topoBoundaryVerts(t, 1, i);
    const Ent expect = m.findEntity(
        Topo::Edge, std::array<Ent, 2>{vs[static_cast<std::size_t>(idxs[0])],
                                       vs[static_cast<std::size_t>(idxs[1])]});
    EXPECT_EQ(buf[static_cast<std::size_t>(i)], expect);
  }
}

TEST_P(SingleElement, BuildIsIdempotent) {
  const Topo t = GetParam();
  Mesh m;
  std::vector<Ent> vs;
  for (const Vec3& p : referenceCoords(t)) vs.push_back(m.createVertex(p));
  const Ent a = m.buildElement(t, vs);
  const Ent b = m.buildElement(t, vs);
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.count(3), 1u);
}

TEST_P(SingleElement, PositiveMeasure) {
  const Topo t = GetParam();
  Mesh m;
  std::vector<Ent> vs;
  for (const Vec3& p : referenceCoords(t)) vs.push_back(m.createVertex(p));
  const Ent e = m.buildElement(t, vs);
  EXPECT_GT(core::measure(m, e), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllRegions, SingleElement,
                         ::testing::Values(Topo::Tet, Topo::Hex, Topo::Prism,
                                           Topo::Pyramid),
                         [](const auto& info) {
                           return core::topoName(info.param);
                         });

TEST(Mesh, TwoTetsShareAFace) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  const Ent v1 = m.createVertex({1, 0, 0});
  const Ent v2 = m.createVertex({0, 1, 0});
  const Ent v3 = m.createVertex({0, 0, 1});
  const Ent v4 = m.createVertex({1, 1, 1});
  const Ent t0 = m.buildElement(Topo::Tet, std::array{v0, v1, v2, v3});
  const Ent t1 = m.buildElement(Topo::Tet, std::array{v1, v2, v3, v4});
  EXPECT_EQ(m.count(3), 2u);
  // Faces: 4 + 4 - 1 shared.
  EXPECT_EQ(m.count(2), 7u);
  // Edges: 6 + 6 - 3 shared.
  EXPECT_EQ(m.count(1), 9u);
  const Ent shared = m.findEntity(Topo::Tri, std::array{v1, v2, v3});
  ASSERT_TRUE(shared);
  EXPECT_EQ(m.up(shared).size(), 2u);
  EXPECT_TRUE(m.up(shared).contains(t0));
  EXPECT_TRUE(m.up(shared).contains(t1));
  core::verify(m);
}

TEST(Mesh, AdjacentUpwardTraversal) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  const Ent v1 = m.createVertex({1, 0, 0});
  const Ent v2 = m.createVertex({0, 1, 0});
  const Ent v3 = m.createVertex({0, 0, 1});
  const Ent v4 = m.createVertex({1, 1, 1});
  m.buildElement(Topo::Tet, std::array{v0, v1, v2, v3});
  m.buildElement(Topo::Tet, std::array{v1, v2, v3, v4});
  // v1 touches both regions.
  EXPECT_EQ(m.adjacent(v1, 3).size(), 2u);
  // v0 touches one.
  EXPECT_EQ(m.adjacent(v0, 3).size(), 1u);
  // Vertex to itself.
  EXPECT_EQ(m.adjacent(v0, 0), std::vector<Ent>{v0});
  // Edge (v1,v2) bounds both tets.
  const Ent e12 = m.findEntity(Topo::Edge, std::array{v1, v2});
  ASSERT_TRUE(e12);
  EXPECT_EQ(m.adjacent(e12, 3).size(), 2u);
  // Region downward to vertices.
  const Ent t0 = m.findEntity(Topo::Tet, std::array{v0, v1, v2, v3});
  EXPECT_EQ(m.adjacent(t0, 0).size(), 4u);
}

TEST(Mesh, FindEntityNegative) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  const Ent v1 = m.createVertex({1, 0, 0});
  const Ent v2 = m.createVertex({0, 1, 0});
  m.buildElement(Topo::Tri, std::array{v0, v1, v2});
  const Ent v3 = m.createVertex({5, 5, 5});
  EXPECT_FALSE(m.findEntity(Topo::Edge, std::array{v0, v3}));
  EXPECT_FALSE(m.findEntity(Topo::Tri, std::array{v0, v1, v3}));
  EXPECT_TRUE(m.findEntity(Topo::Tri, std::array{v2, v0, v1}));  // any order
}

TEST(Mesh, DestroyElementThenOrphans) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  const Ent v1 = m.createVertex({1, 0, 0});
  const Ent v2 = m.createVertex({0, 1, 0});
  const Ent v3 = m.createVertex({0, 0, 1});
  const Ent tet = m.buildElement(Topo::Tet, std::array{v0, v1, v2, v3});
  // Cannot destroy a face still bounding the tet.
  const Ent f = m.findEntity(Topo::Tri, std::array{v0, v1, v2});
  EXPECT_THROW(m.destroy(f), std::logic_error);
  m.destroy(tet);
  EXPECT_EQ(m.count(3), 0u);
  // Now faces are free.
  for (Ent face : m.all(2)) m.destroy(face);
  for (Ent edge : m.all(1)) m.destroy(edge);
  for (Ent v : m.all(0)) m.destroy(v);
  EXPECT_EQ(m.count(0), 0u);
  EXPECT_EQ(m.dim(), -1);
  core::verify(m);
}

TEST(Mesh, SlotReuseAfterDestroy) {
  Mesh m;
  const Ent v0 = m.createVertex({0, 0, 0});
  m.destroy(v0);
  const Ent v1 = m.createVertex({1, 1, 1});
  EXPECT_EQ(v1.index(), v0.index());  // free list reuses the slot
  EXPECT_EQ(m.point(v1), Vec3(1, 1, 1));
  EXPECT_EQ(m.count(0), 1u);
}

TEST(Mesh, IterationSkipsDead) {
  Mesh m;
  std::vector<Ent> vs;
  for (int i = 0; i < 10; ++i)
    vs.push_back(m.createVertex({static_cast<double>(i), 0, 0}));
  m.destroy(vs[3]);
  m.destroy(vs[7]);
  std::size_t n = 0;
  for (Ent v : m.entities(0)) {
    EXPECT_TRUE(m.alive(v));
    ++n;
  }
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(m.all(0).size(), 8u);
}

TEST(Mesh, MixedTopologyDimension) {
  // A tet and a hex coexisting; iteration over dim 3 sees both.
  Mesh m;
  std::vector<Ent> tv, hv;
  for (const Vec3& p : referenceCoords(Topo::Tet))
    tv.push_back(m.createVertex(p + Vec3{10, 0, 0}));
  for (const Vec3& p : referenceCoords(Topo::Hex))
    hv.push_back(m.createVertex(p));
  m.buildElement(Topo::Tet, tv);
  m.buildElement(Topo::Hex, hv);
  EXPECT_EQ(m.count(3), 2u);
  EXPECT_EQ(m.countTopo(Topo::Tet), 1u);
  EXPECT_EQ(m.countTopo(Topo::Hex), 1u);
  std::size_t seen = 0;
  for ([[maybe_unused]] Ent e : m.entities(3)) ++seen;
  EXPECT_EQ(seen, 2u);
  core::verify(m);
}

TEST(Mesh, PointsAndSetPoint) {
  Mesh m;
  const Ent v = m.createVertex({1, 2, 3});
  EXPECT_EQ(m.point(v), Vec3(1, 2, 3));
  m.setPoint(v, {4, 5, 6});
  EXPECT_EQ(m.point(v), Vec3(4, 5, 6));
}

TEST(Mesh, TagsOnEntities) {
  Mesh m;
  const Ent v = m.createVertex({0, 0, 0});
  auto* weight = m.tags().create<double>("weight");
  m.tags().setScalar<double>(weight, v, 2.5);
  EXPECT_EQ(m.tags().getScalar<double>(weight, v), 2.5);
  // Destroy removes tag values.
  m.destroy(v);
  const Ent v2 = m.createVertex({1, 1, 1});
  EXPECT_EQ(v2.index(), v.index());
  EXPECT_FALSE(weight->has(v2));
}

TEST(Mesh, EntitySets) {
  Mesh m;
  const Ent a = m.createVertex({0, 0, 0});
  const Ent b = m.createVertex({1, 0, 0});
  auto& s = m.createSet("boundary_layer");
  s.add(a);
  s.add(b);
  EXPECT_EQ(m.findSet("boundary_layer")->size(), 2u);
  EXPECT_EQ(m.findSet("nope"), nullptr);
  EXPECT_THROW(m.createSet("boundary_layer"), std::invalid_argument);
  m.destroySet("boundary_layer");
  EXPECT_EQ(m.findSet("boundary_layer"), nullptr);
}

TEST(Mesh, EntHandleBasics) {
  const Ent null;
  EXPECT_TRUE(null.null());
  EXPECT_FALSE(null);
  const Ent e(Topo::Tet, 42);
  EXPECT_TRUE(e);
  EXPECT_EQ(e.topo(), Topo::Tet);
  EXPECT_EQ(e.index(), 42u);
  EXPECT_EQ(Ent::unpack(e.packed()), e);
  EXPECT_NE(e, Ent(Topo::Tet, 43));
  EXPECT_NE(e, Ent(Topo::Hex, 42));
  EXPECT_LT(Ent(Topo::Tri, 5), Ent(Topo::Tet, 0));
}

/// --- flat rollback image ----------------------------------------------------

/// An n^3 grid of cubes, each split into six tets along its main diagonal.
void buildKuhnGrid(Mesh& m, int n) {
  std::vector<Ent> vs;
  for (int k = 0; k <= n; ++k)
    for (int j = 0; j <= n; ++j)
      for (int i = 0; i <= n; ++i)
        vs.push_back(m.createVertex({double(i), double(j), double(k)}));
  auto at = [&](int i, int j, int k) {
    return vs[static_cast<std::size_t>((k * (n + 1) + j) * (n + 1) + i)];
  };
  const std::array<std::array<int, 3>, 6> perms{
      {{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        for (const auto& p : perms) {
          std::array<int, 3> c{i, j, k};
          std::array<Ent, 4> tet{at(c[0], c[1], c[2])};
          for (int s = 0; s < 3; ++s) {
            ++c[static_cast<std::size_t>(p[static_cast<std::size_t>(s)])];
            tet[static_cast<std::size_t>(s) + 1] = at(c[0], c[1], c[2]);
          }
          m.buildElement(Topo::Tet, tet);
        }
}

/// Seeded refine/coarsen churn: split a random tet at its centroid, or
/// undo a random earlier split whose four children are untouched. Both
/// free slots that later creations reuse.
void churn(Mesh& m, common::Rng& rng, int ops) {
  struct Split {
    std::array<Ent, 4> parent;
    Ent center;
    std::array<Ent, 4> kids;
  };
  std::vector<Split> splits;
  for (int op = 0; op < ops; ++op) {
    if (!splits.empty() && rng.uniform() < 0.4) {
      const std::size_t pick = rng.below(splits.size());
      const Split s = splits[pick];
      splits.erase(splits.begin() + static_cast<std::ptrdiff_t>(pick));
      // Untouched: every child alive over its own vertices (a split
      // child's slot may since hold some other tet).
      bool intact = true;
      for (int k = 0; k < 4 && intact; ++k) {
        const Ent kid = s.kids[static_cast<std::size_t>(k)];
        auto want = s.parent;
        want[static_cast<std::size_t>(k)] = s.center;
        intact = m.alive(kid) && std::ranges::equal(m.verts(kid), want);
      }
      if (!intact) continue;
      for (Ent kid : s.kids) m.destroy(kid);
      for (int d = 2; d >= 1; --d)
        for (Ent e : m.adjacent(s.center, d))
          if (m.up(e).empty()) m.destroy(e);
      m.destroy(s.center);
      m.buildElement(Topo::Tet, s.parent);
      continue;
    }
    const auto tets = m.all(3);
    const Ent t = tets[rng.below(tets.size())];
    Split s;
    const auto vs = m.verts(t);
    std::copy(vs.begin(), vs.end(), s.parent.begin());
    Vec3 c{0, 0, 0};
    for (Ent v : s.parent) c = c + m.point(v) * 0.25;
    m.destroy(t);
    s.center = m.createVertex(c);
    for (int k = 0; k < 4; ++k) {
      auto kid = s.parent;
      kid[static_cast<std::size_t>(k)] = s.center;
      s.kids[static_cast<std::size_t>(k)] = m.buildElement(Topo::Tet, kid);
    }
    splits.push_back(s);
  }
}

/// Every pool array, free list and up-list of `a` and `b` agree.
void expectSameState(const Mesh& a, const Mesh& b) {
  const auto sa = core::integrity::MeshAccess::sections(a);
  const auto sb = core::integrity::MeshAccess::sections(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].name, sb[i].name);
    EXPECT_TRUE(std::equal(sa[i].bytes.begin(), sa[i].bytes.end(),
                           sb[i].bytes.begin(), sb[i].bytes.end()))
        << sa[i].name;
  }
  for (int t = 0; t < core::kTopoCount; ++t) {
    const auto topo = static_cast<Topo>(t);
    ASSERT_EQ(a.slots(topo), b.slots(topo));
    EXPECT_EQ(a.countTopo(topo), b.countTopo(topo));
    for (std::uint32_t i = 0; i < a.slots(topo); ++i) {
      const Ent e(topo, i);
      ASSERT_EQ(a.alive(e), b.alive(e));
      if (!a.alive(e)) continue;
      const auto& ua = a.up(e);
      const auto& ub = b.up(e);
      EXPECT_TRUE(std::equal(ua.begin(), ua.end(), ub.begin(), ub.end()))
          << core::topoName(topo) << " #" << i << " up-list";
    }
  }
}

/// Drain every free list of `m` by creating entities, in one fixed order:
/// the handles they get spell the free lists.
std::vector<Ent> drain(Mesh& m) {
  std::vector<Ent> got;
  const double z = 100.0;
  auto freeSlots = [&m] {
    std::size_t n = 0;
    for (Topo t : {Topo::Vertex, Topo::Edge, Topo::Tri, Topo::Tet})
      n += m.slots(t) - m.countTopo(t);
    return n;
  };
  for (int k = 0; freeSlots() > 0; ++k) {
    std::array<Ent, 4> vs{};
    for (int i = 0; i < 4; ++i) {
      vs[static_cast<std::size_t>(i)] =
          m.createVertex({double(k), double(i), z});
      got.push_back(vs[static_cast<std::size_t>(i)]);
    }
    got.push_back(m.buildElement(Topo::Tet, vs));
    for (int d = 1; d <= 2; ++d)
      for (Ent e : m.adjacent(got.back(), d)) got.push_back(e);
  }
  return got;
}

TEST(MeshImage, RestoreMatchesCopyFromAfterFreeListChurn) {
  Mesh m;
  buildKuhnGrid(m, 3);
  common::Rng rng(2028);
  churn(m, rng, 120);
  auto* tag = m.tags().create<double>("w");
  for (Ent v : m.entities(0)) m.tags().setScalar<double>(tag, v, 1.5);

  Mesh oracle;
  oracle.copyFrom(m);
  Mesh::Image image;
  m.saveImage(image);

  // Mutate past the snapshot: more churn (reusing and growing pools),
  // moved points, new tag values.
  churn(m, rng, 150);
  for (Ent v : m.entities(0)) m.setPoint(v, m.point(v) * 2.0);
  tag = m.tags().find("w");
  for (Ent v : m.entities(0)) m.tags().setScalar<double>(tag, v, -1.0);

  const auto topo0 = m.topoVersion();
  const auto data0 = m.dataVersion();
  m.restoreImage(image);
  EXPECT_EQ(m.topoVersion(), topo0 + 1);
  EXPECT_EQ(m.dataVersion(), data0 + 1);
  expectSameState(m, oracle);
  auto* restored = m.tags().find("w");
  ASSERT_NE(restored, nullptr);
  for (Ent v : m.entities(0))
    EXPECT_EQ(m.tags().getScalar<double>(restored, v), 1.5);
  core::verify(m);

  // The same creations on both get the same handles: free lists agree.
  Mesh copy;
  copy.copyFrom(m);
  EXPECT_EQ(drain(copy), drain(oracle));

  // An image is reusable: a second save into it replaces its content.
  churn(m, rng, 40);
  Mesh oracle2;
  oracle2.copyFrom(m);
  m.saveImage(image);
  churn(m, rng, 40);
  m.restoreImage(image);
  expectSameState(m, oracle2);
  EXPECT_EQ(drain(m), drain(oracle2));
}

TEST(Measure, TetVolumeSigned) {
  const double v = core::tetVolume({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1});
  EXPECT_NEAR(v, 1.0 / 6.0, 1e-15);
  const double w = core::tetVolume({0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {0, 0, 1});
  EXPECT_NEAR(w, -1.0 / 6.0, 1e-15);
}

TEST(Measure, UnitShapes) {
  Mesh m;
  // Unit hex volume 1.
  std::vector<Ent> hv;
  for (const Vec3& p : referenceCoords(Topo::Hex)) hv.push_back(m.createVertex(p));
  const Ent hex = m.buildElement(Topo::Hex, hv);
  EXPECT_NEAR(core::measure(m, hex), 1.0, 1e-12);
  // A face of it has area 1, an edge length 1.
  std::array<Ent, core::kMaxDown> buf{};
  m.downward(hex, 2, buf.data());
  EXPECT_NEAR(core::measure(m, buf[0]), 1.0, 1e-12);
  m.downward(hex, 1, buf.data());
  EXPECT_NEAR(core::measure(m, buf[0]), 1.0, 1e-12);
  EXPECT_EQ(core::measure(m, hv[0]), 0.0);
  // Centroid of the hex is the cube center.
  EXPECT_EQ(core::centroid(m, hex), Vec3(0.5, 0.5, 0.5));
}

TEST(Measure, MeshBounds) {
  Mesh m;
  m.createVertex({-1, 0, 2});
  m.createVertex({3, -2, 5});
  const auto box = core::bounds(m);
  EXPECT_EQ(box.lo, Vec3(-1, -2, 2));
  EXPECT_EQ(box.hi, Vec3(3, 0, 5));
}

}  // namespace
