#include "core/meshio.hpp"

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "core/tagio.hpp"
#include "gmi/model.hpp"
#include "pcu/buffer.hpp"
#include "pcu/error.hpp"

namespace core {

namespace {

constexpr std::uint64_t kMagic = 0x50554d4952455031ull;  // "PUMIREP1"

/// Fewest bytes one record can occupy: classification (2 x i32) and tag
/// count (u32) after a point (vertex) or a topology byte and at least two
/// vertex indices (entity). Bounds a decoded count by the bytes left.
constexpr std::size_t kRecordTail =
    2 * sizeof(std::int32_t) + sizeof(std::uint32_t);
constexpr std::size_t kMinVertexBytes = sizeof(Vec3) + kRecordTail;
constexpr std::size_t kMinEntityBytes =
    sizeof(std::uint8_t) + 2 * sizeof(std::uint32_t) + kRecordTail;

[[noreturn]] void reject(const std::string& why) {
  throw pcu::Error(pcu::ErrorCode::kProtocol, -1, "meshFromBytes: " + why);
}

/// Read a record count, rejecting one the remaining bytes cannot hold.
std::uint64_t unpackCount(pcu::InBuffer& b, std::size_t min_record,
                          const char* what) {
  const auto n = b.unpack<std::uint64_t>();
  if (n > b.remaining() / min_record)
    reject(std::string(what) + " count " + std::to_string(n) +
           " exceeds the " + std::to_string(b.remaining()) +
           " bytes left in the stream");
  return n;
}

void putCls(pcu::SizedWriter& out, gmi::Entity* cls) {
  out.put<std::int32_t>(cls ? cls->dim() : -1);
  out.put<std::int32_t>(cls ? cls->tag() : -1);
}

gmi::Entity* unpackCls(pcu::InBuffer& b, gmi::Model* model) {
  const auto dim = b.unpack<std::int32_t>();
  const auto tag = b.unpack<std::int32_t>();
  if (dim < 0) return nullptr;
  gmi::Entity* cls = model ? model->find(dim, tag) : nullptr;
  if (model != nullptr && cls == nullptr)
    throw pcu::Error(pcu::ErrorCode::kValidation, -1,
                     "meshFromBytes: model entity (" + std::to_string(dim) +
                         "," + std::to_string(tag) + ") not found");
  return cls;
}

}  // namespace

std::vector<std::byte> meshToBytes(const Mesh& mesh) {
  const TagPlan plan(mesh);
  const TagPlan::SlotView tags(plan, mesh);

  // Size the stream exactly, then write it in one pass: magic, then per
  // dimension a count and its records. A record is a vertex's point or an
  // entity's topology byte and vertex indices, then its classification and
  // its tag record (a u32 count plus what SlotView::valueBytes sums).
  constexpr std::size_t kCls = 2 * sizeof(std::int32_t);
  constexpr std::size_t kTagCount = sizeof(std::uint32_t);
  std::size_t size = sizeof(kMagic) + 4 * sizeof(std::uint64_t) +
                     tags.valueBytes() +
                     mesh.count(0) * (sizeof(Vec3) + kCls + kTagCount);
  for (int t = 1; t < kTopoCount; ++t) {
    const auto topo = static_cast<Topo>(t);
    size += mesh.countTopo(topo) *
            (sizeof(std::uint8_t) +
             sizeof(std::uint32_t) *
                 static_cast<std::size_t>(topoVertexCount(topo)) +
             kCls + kTagCount);
  }
  pcu::SizedWriter out(size);
  out.put(kMagic);

  // Vertices: coordinates + classification + tags, indexed by iteration
  // order. The index is dense over vertex pool slots.
  constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  std::vector<std::uint32_t> vindex(mesh.slots(Topo::Vertex), kAbsent);
  out.put<std::uint64_t>(mesh.count(0));
  std::uint32_t nv = 0;
  for (Ent v : mesh.entities(0)) {
    vindex[v.index()] = nv++;
    out.put(mesh.point(v));
    putCls(out, mesh.classification(v));
    tags.write(v, out);
  }

  // Entities of every higher dimension, ascending, by canonical vertices.
  for (int d = 1; d <= 3; ++d) {
    out.put<std::uint64_t>(mesh.count(d));
    for (Ent e : mesh.entities(d)) {
      out.put<std::uint8_t>(static_cast<std::uint8_t>(e.topo()));
      for (Ent v : mesh.verts(e)) {
        if (v.topo() != Topo::Vertex || v.index() >= vindex.size() ||
            vindex[v.index()] == kAbsent)
          throw std::out_of_range("meshToBytes: entity names a dead vertex");
        out.put<std::uint32_t>(vindex[v.index()]);
      }
      putCls(out, mesh.classification(e));
      tags.write(e, out);
    }
  }

  return std::move(out).take();
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
    reject("not a pumi-repro mesh stream");

  auto mesh = std::make_unique<Mesh>(model);
  const auto nverts = unpackCount(b, kMinVertexBytes, "vertex");
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
    const auto count = unpackCount(b, kMinEntityBytes, "entity");
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto code = b.unpack<std::uint8_t>();
      if (code >= kTopoCount || topoDim(static_cast<Topo>(code)) != d)
        reject("topology code " + std::to_string(code) +
               " is not a dimension-" + std::to_string(d) + " type");
      const auto topo = static_cast<Topo>(code);
      std::array<Ent, 8> vs{};
      const int nv = topoVertexCount(topo);
      for (int k = 0; k < nv; ++k) {
        const auto vi = b.unpack<std::uint32_t>();
        if (vi >= verts.size())
          reject("vertex index " + std::to_string(vi) + " of " +
                 std::to_string(verts.size()) + " vertices");
        vs[static_cast<std::size_t>(k)] = verts[vi];
        for (int j = 0; j < k; ++j)
          if (vs[static_cast<std::size_t>(j)] == verts[vi])
            reject("vertex index " + std::to_string(vi) +
                   " repeats in one record");
      }
      gmi::Entity* cls = unpackCls(b, model);
      // Entities were written dimension-ascending, so every boundary
      // entity already exists; buildElement finds it and creates only e.
      const Ent e = mesh->buildElement(
          topo, {vs.data(), static_cast<std::size_t>(nv)}, cls);
      mesh->classify(e, cls);  // explicit file classification wins
      unpackTags(*mesh, e, b);
    }
  }
  if (!b.done()) reject("trailing bytes in mesh stream");
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
