#include "core/meshio.hpp"

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "core/tagio.hpp"
#include "gmi/model.hpp"
#include "pcu/buffer.hpp"

namespace core {

namespace {

constexpr std::uint64_t kMagic = 0x50554d4952455031ull;  // "PUMIREP1"

void packCls(pcu::OutBuffer& b, gmi::Entity* cls) {
  b.pack<std::int32_t>(cls ? cls->dim() : -1);
  b.pack<std::int32_t>(cls ? cls->tag() : -1);
}

gmi::Entity* unpackCls(pcu::InBuffer& b, gmi::Model* model) {
  const auto dim = b.unpack<std::int32_t>();
  const auto tag = b.unpack<std::int32_t>();
  if (dim < 0) return nullptr;
  gmi::Entity* cls = model ? model->find(dim, tag) : nullptr;
  if (model != nullptr && cls == nullptr)
    throw std::runtime_error("readMesh: model entity (" +
                             std::to_string(dim) + "," + std::to_string(tag) +
                             ") not found");
  return cls;
}

}  // namespace

std::vector<std::byte> meshToBytes(const Mesh& mesh) {
  pcu::OutBuffer b;
  b.pack(kMagic);
  const TagPlan tags(mesh);

  // Vertices: coordinates + classification + tags, indexed by iteration
  // order. The index is dense over vertex pool slots (iteration visits
  // them in ascending slot order, so the last vertex sizes it).
  constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  std::vector<std::uint32_t> vindex;
  vindex.reserve(mesh.count(0));
  b.pack<std::uint64_t>(mesh.count(0));
  std::uint32_t nv = 0;
  for (Ent v : mesh.entities(0)) {
    vindex.resize(std::size_t{v.index()} + 1, kAbsent);
    vindex[v.index()] = nv++;
    b.pack(mesh.point(v));
    packCls(b, mesh.classification(v));
    tags.pack(v, b);
  }

  // Entities of every higher dimension, ascending, by canonical vertices.
  for (int d = 1; d <= 3; ++d) {
    b.pack<std::uint64_t>(mesh.count(d));
    for (Ent e : mesh.entities(d)) {
      b.pack<std::uint8_t>(static_cast<std::uint8_t>(e.topo()));
      for (Ent v : mesh.verts(e)) {
        if (v.topo() != Topo::Vertex || v.index() >= vindex.size() ||
            vindex[v.index()] == kAbsent)
          throw std::out_of_range("meshToBytes: entity names a dead vertex");
        b.pack<std::uint32_t>(vindex[v.index()]);
      }
      packCls(b, mesh.classification(e));
      tags.pack(e, b);
    }
  }

  return std::move(b).take();
}

void writeMesh(const Mesh& mesh, const std::string& path) {
  const auto bytes = meshToBytes(mesh);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("writeMesh: cannot open " + path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size())
    throw std::runtime_error("writeMesh: short write to " + path);
}

std::unique_ptr<Mesh> meshFromBytes(std::vector<std::byte> bytes,
                                    gmi::Model* model) {
  pcu::InBuffer b(std::move(bytes));

  if (b.unpack<std::uint64_t>() != kMagic)
    throw std::runtime_error("meshFromBytes: not a pumi-repro mesh stream");

  auto mesh = std::make_unique<Mesh>(model);
  const auto nverts = b.unpack<std::uint64_t>();
  std::vector<Ent> verts;
  verts.reserve(nverts);
  for (std::uint64_t i = 0; i < nverts; ++i) {
    const auto x = b.unpack<Vec3>();
    gmi::Entity* cls = unpackCls(b, model);
    const Ent v = mesh->createVertex(x, cls);
    unpackTags(*mesh, v, b);
    verts.push_back(v);
  }

  for (int d = 1; d <= 3; ++d) {
    const auto count = b.unpack<std::uint64_t>();
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto topo = static_cast<Topo>(b.unpack<std::uint8_t>());
      std::array<Ent, 8> vs{};
      const int nv = topoVertexCount(topo);
      for (int k = 0; k < nv; ++k)
        vs[static_cast<std::size_t>(k)] =
            verts.at(b.unpack<std::uint32_t>());
      gmi::Entity* cls = unpackCls(b, model);
      // Entities were written dimension-ascending, so every boundary
      // entity already exists; buildElement finds it and creates only e.
      const Ent e = mesh->buildElement(
          topo, {vs.data(), static_cast<std::size_t>(nv)}, cls);
      mesh->classify(e, cls);  // explicit file classification wins
      unpackTags(*mesh, e, b);
    }
  }
  if (!b.done())
    throw std::runtime_error("meshFromBytes: trailing bytes in mesh stream");
  return mesh;
}

std::unique_ptr<Mesh> readMesh(const std::string& path, gmi::Model* model) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("readMesh: cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size())
    throw std::runtime_error("readMesh: short read from " + path);
  return meshFromBytes(std::move(bytes), model);
}

}  // namespace core
