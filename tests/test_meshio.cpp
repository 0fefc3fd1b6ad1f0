#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/measure.hpp"
#include "core/meshio.hpp"
#include "core/verify.hpp"
#include "gmi/model.hpp"
#include "meshgen/boxmesh.hpp"
#include "meshgen/workloads.hpp"
#include "pcu/buffer.hpp"
#include "pcu/error.hpp"

namespace {

using core::Ent;

std::string tmpPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(MeshIo, RoundTripBoxTets) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const std::string path = tmpPath("box.pumi");
  core::writeMesh(*gen.mesh, path);
  auto back = core::readMesh(path, gen.model.get());
  std::remove(path.c_str());

  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(back->count(d), gen.mesh->count(d)) << "dim " << d;
  core::verify(*back, {.check_volumes = true});

  // Coordinates and classification agree vertex-by-vertex (iteration order
  // is preserved by the format).
  auto ita = gen.mesh->entities(0).begin();
  for (Ent vb : back->entities(0)) {
    EXPECT_EQ(back->point(vb), gen.mesh->point(*ita));
    EXPECT_EQ(back->classification(vb), gen.mesh->classification(*ita));
    ++ita;
  }
  // Boundary faces kept their model-face classification.
  std::size_t boundary = 0;
  for (Ent f : back->entities(2))
    if (back->classification(f)->dim() == 2) ++boundary;
  std::size_t boundary_orig = 0;
  for (Ent f : gen.mesh->entities(2))
    if (gen.mesh->classification(f)->dim() == 2) ++boundary_orig;
  EXPECT_EQ(boundary, boundary_orig);
}

TEST(MeshIo, RoundTripTagsAndCurvedClassification) {
  auto gen = meshgen::vessel({.circumferential = 4, .axial = 8});
  auto& m = *gen.mesh;
  auto* weight = m.tags().create<double>("weight");
  auto* ids = m.tags().create<long>("ids", 2);
  std::size_t i = 0;
  for (Ent e : m.entities(3)) {
    m.tags().setScalar<double>(weight, e, 0.5 + static_cast<double>(i));
    m.tags().set<long>(ids, e, {static_cast<long>(i), -static_cast<long>(i)});
    ++i;
  }
  const std::string path = tmpPath("vessel.pumi");
  core::writeMesh(m, path);
  auto back = core::readMesh(path, gen.model.get());
  std::remove(path.c_str());

  core::verify(*back, {.check_volumes = true});
  auto* weight2 = back->tags().find("weight");
  auto* ids2 = back->tags().find("ids");
  ASSERT_NE(weight2, nullptr);
  ASSERT_NE(ids2, nullptr);
  EXPECT_EQ(ids2->components(), 2u);
  std::size_t j = 0;
  for (Ent e : back->entities(3)) {
    EXPECT_EQ(back->tags().getScalar<double>(weight2, e),
              0.5 + static_cast<double>(j));
    EXPECT_EQ(back->tags().get<long>(ids2, e)[1], -static_cast<long>(j));
    ++j;
  }
}

TEST(MeshIo, RoundTripTwoDimensional) {
  auto gen = meshgen::boxTris(4, 4);
  const std::string path = tmpPath("tris.pumi");
  core::writeMesh(*gen.mesh, path);
  auto back = core::readMesh(path, gen.model.get());
  std::remove(path.c_str());
  EXPECT_EQ(back->dim(), 2);
  EXPECT_EQ(back->count(2), gen.mesh->count(2));
  core::verify(*back);
  double area = 0.0;
  for (Ent f : back->entities(2)) area += core::measure(*back, f);
  EXPECT_NEAR(area, 1.0, 1e-12);
}

TEST(MeshIo, RejectsGarbageAndMissingFiles) {
  EXPECT_THROW(core::readMesh(tmpPath("does_not_exist.pumi"), nullptr),
               std::runtime_error);
  const std::string path = tmpPath("garbage.pumi");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a mesh", f);
  std::fclose(f);
  EXPECT_THROW(core::readMesh(path, nullptr), std::runtime_error);
  std::remove(path.c_str());
}

// --- hostile streams: every malformed input is a pcu::Error, never a crash

/// The stream header, taken from a real (empty) mesh stream.
std::uint64_t streamMagic() {
  core::Mesh empty;
  return pcu::InBuffer(core::meshToBytes(empty)).unpack<std::uint64_t>();
}

/// The close of every record: no classification, then a tag count.
void packTail(pcu::OutBuffer& b, std::uint32_t tags = 0) {
  b.pack<std::int32_t>(-1);  // classification dim: none
  b.pack<std::int32_t>(-1);  // classification tag
  b.pack<std::uint32_t>(tags);
}

/// One unclassified, untagged vertex record.
void packVertex(pcu::OutBuffer& b, const common::Vec3& x) {
  b.pack(x);
  packTail(b);
}

/// Two vertices and one dimension-1 record carrying topology byte `topo`
/// over vertex indices 0 and `second`.
std::vector<std::byte> edgeStream(std::uint8_t topo, std::uint32_t second = 1) {
  pcu::OutBuffer b;
  b.pack(streamMagic());
  b.pack<std::uint64_t>(2);
  packVertex(b, {0, 0, 0});
  packVertex(b, {1, 0, 0});
  b.pack<std::uint64_t>(1);
  b.pack(topo);
  b.pack<std::uint32_t>(0);
  b.pack<std::uint32_t>(second);
  packTail(b);
  b.pack<std::uint64_t>(0);  // faces
  b.pack<std::uint64_t>(0);  // regions
  return std::move(b).take();
}

/// One vertex carrying a one-component tag record of type code `code`.
std::vector<std::byte> taggedVertexStream(std::uint8_t code) {
  pcu::OutBuffer b;
  b.pack(streamMagic());
  b.pack<std::uint64_t>(1);
  b.pack(common::Vec3{0, 0, 0});
  packTail(b, 1);
  b.packString("w");
  b.pack(code);
  b.pack<std::uint32_t>(1);
  b.packVector(std::vector<double>{2.5});
  for (int d = 1; d <= 3; ++d) b.pack<std::uint64_t>(0);
  return std::move(b).take();
}

void expectProtocolError(std::vector<std::byte> bytes, const char* what) {
  try {
    core::meshFromBytes(std::move(bytes), nullptr);
    ADD_FAILURE() << "accepted " << what;
  } catch (const pcu::Error& e) {
    EXPECT_EQ(e.code(), pcu::ErrorCode::kProtocol) << what;
  }
}

TEST(MeshIoHostile, EveryTruncationPrefixThrows) {
  auto gen = meshgen::boxTets(2, 2, 2);
  common::Rng rng(5);
  meshgen::jiggle(*gen.mesh, 0.2, rng);
  auto* weight = gen.mesh->tags().create<double>("weight");
  for (Ent e : gen.mesh->entities(3))
    gen.mesh->tags().setScalar<double>(weight, e, rng.uniform());
  const auto bytes = core::meshToBytes(*gen.mesh);
  ASSERT_NO_THROW(core::meshFromBytes(bytes, gen.model.get()));
  std::size_t accepted = 0, wrong_error = 0, first_bad = bytes.size();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    try {
      core::meshFromBytes({bytes.begin(), bytes.begin() +
                                              static_cast<std::ptrdiff_t>(n)},
                          gen.model.get());
      ++accepted;
      first_bad = std::min(first_bad, n);
    } catch (const pcu::Error&) {
    } catch (const std::exception&) {
      ++wrong_error;
      first_bad = std::min(first_bad, n);
    }
  }
  EXPECT_EQ(accepted, 0u) << "first bad prefix: " << first_bad;
  EXPECT_EQ(wrong_error, 0u) << "first bad prefix: " << first_bad;
}

TEST(MeshIoHostile, TopologyCodeMustNameATypeOfTheRecordDimension) {
  // Positive control: the same stream with an edge code decodes.
  auto mesh = core::meshFromBytes(
      edgeStream(static_cast<std::uint8_t>(core::Topo::Edge)), nullptr);
  EXPECT_EQ(mesh->count(1), 1u);
  expectProtocolError(edgeStream(9), "topology code 9");
  expectProtocolError(edgeStream(200), "topology code 200");
  expectProtocolError(edgeStream(static_cast<std::uint8_t>(core::Topo::Tri)),
                      "a triangle among the edges");
  expectProtocolError(
      edgeStream(static_cast<std::uint8_t>(core::Topo::Edge), 2),
      "vertex index 2 of 2 vertices");
}

TEST(MeshIoHostile, HugeVertexCountThrowsWithoutAllocating) {
  pcu::OutBuffer b;
  b.pack(streamMagic());
  b.pack<std::uint64_t>(std::uint64_t{1} << 58);
  packVertex(b, {0, 0, 0});
  expectProtocolError(std::move(b).take(), "a 2^58 vertex count");
}

TEST(MeshIoHostile, UnknownTagTypeCodeThrows) {
  auto mesh = core::meshFromBytes(taggedVertexStream(2), nullptr);  // double
  auto* w = mesh->tags().find("w");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(mesh->tags().getScalar<double>(w, mesh->all(0).front()), 2.5);
  expectProtocolError(taggedVertexStream(3), "tag type code 3");
  expectProtocolError(taggedVertexStream(255), "tag type code 255");
}

TEST(MeshIoHostile, RepeatedVertexBadMagicAndTrailingBytesThrow) {
  // Edge records (0,0) then (0,1): the degenerate first record must not
  // decode into a one-edge mesh.
  pcu::OutBuffer b;
  b.pack(streamMagic());
  b.pack<std::uint64_t>(2);
  packVertex(b, {0, 0, 0});
  packVertex(b, {1, 0, 0});
  b.pack<std::uint64_t>(2);
  for (const std::uint32_t second : {0u, 1u}) {
    b.pack(static_cast<std::uint8_t>(core::Topo::Edge));
    b.pack<std::uint32_t>(0);
    b.pack<std::uint32_t>(second);
    packTail(b);
  }
  b.pack<std::uint64_t>(0);  // faces
  b.pack<std::uint64_t>(0);  // regions
  expectProtocolError(std::move(b).take(), "edge (0,0)");
  auto bad_magic = edgeStream(static_cast<std::uint8_t>(core::Topo::Edge));
  bad_magic[0] ^= std::byte{0x01};
  expectProtocolError(std::move(bad_magic), "a bad magic word");
  auto trailing = edgeStream(static_cast<std::uint8_t>(core::Topo::Edge));
  trailing.push_back(std::byte{0});
  expectProtocolError(std::move(trailing), "a trailing byte");
}

TEST(MeshIoHostile, MissingModelEntityIsAValidationError) {
  auto gen = meshgen::boxTets(1, 1, 1);
  gmi::Model empty;  // wrong model: no entities
  try {
    core::meshFromBytes(core::meshToBytes(*gen.mesh), &empty);
    ADD_FAILURE() << "classified against a model without the entity";
  } catch (const pcu::Error& e) {
    EXPECT_EQ(e.code(), pcu::ErrorCode::kValidation) << e.what();
  }
}

TEST(MeshIo, MissingModelEntityThrows) {
  auto gen = meshgen::boxTets(1, 1, 1);
  const std::string path = tmpPath("box1.pumi");
  core::writeMesh(*gen.mesh, path);
  gmi::Model empty;  // wrong model: no entities
  EXPECT_THROW(core::readMesh(path, &empty), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
