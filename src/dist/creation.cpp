#include "dist/creation.hpp"

#include <string>
#include <utility>

#include "dist/partedmesh.hpp"
#include "pcu/error.hpp"

namespace dist::creation {

namespace {

[[noreturn]] void malformed(PartId part, const std::string& what) {
  throw pcu::Error(pcu::ErrorCode::kProtocol, static_cast<int>(part),
                   "creation record: " + what);
}

/// Unpack a T, rejecting a truncated record instead of reading past it.
template <typename T>
T take(pcu::InBuffer& b, PartId part) {
  T v;
  if (!b.tryUnpack(v)) malformed(part, "truncated");
  return v;
}

// takeKey and takeRef fill their result in place: returning a GKey or a
// Ref by value assembles it through the stack on every call.
void takeKey(pcu::InBuffer& b, PartId part, GKey& k) {
  k.part = take<std::int32_t>(b, part);
  k.ent = Ent::unpack(take<std::uint64_t>(b, part));
}

void takeRef(pcu::InBuffer& b, PartId part, Ref& r) {
  const auto tag = take<std::int32_t>(b, part);
  if (tag == -1) {
    r.ordinal = take<std::uint32_t>(b, part);
  } else if (tag >= 0) {
    r.key.part = tag;
    r.key.ent = Ent::unpack(take<std::uint64_t>(b, part));
  } else {
    malformed(part, "bad reference tag " + std::to_string(tag));
  }
}

}  // namespace

std::vector<KeyMap> keyMaps(const PartedMesh& pm) {
  std::vector<KeyMap> maps(static_cast<std::size_t>(pm.parts()));
  for (PartId p = 0; p < pm.parts(); ++p) {
    const Part& part = pm.part(p);
    auto& map = maps[static_cast<std::size_t>(p)];
    // Count first so the build is a single allocation, not a rehash chain.
    std::size_t n = 0;
    for (const auto& [e, r] : part.remotes())
      if (r.owner != p) ++n;
    map.reserve(n);
    for (const auto& [e, r] : part.remotes())
      if (r.owner != p) map.emplace(keyOf(p, e, &r), e);
  }
  return maps;
}

int boundaryRefs(core::Topo t) {
  const int d = core::topoDim(t);
  return d >= 2 ? core::topoBoundaryCount(t, d - 1) : 0;
}

Record decode(pcu::InBuffer& b, PartId part) {
  Record r;
  takeKey(b, part, r.key);
  const auto code = take<std::uint8_t>(b, part);
  if (code >= core::kTopoCount)
    malformed(part, "topology code " + std::to_string(code) + " out of range");
  r.topo = static_cast<core::Topo>(code);
  r.cls_dim = take<std::int32_t>(b, part);
  r.cls_tag = take<std::int32_t>(b, part);
  if (r.topo == core::Topo::Vertex) {
    r.x = take<common::Vec3>(b, part);
    return r;
  }
  const char* name = core::topoName(r.topo);
  r.nv = take<std::uint8_t>(b, part);
  if (r.nv != core::topoVertexCount(r.topo))
    malformed(part,
              std::to_string(r.nv) + " vertices for topology " + name);
  for (int k = 0; k < r.nv; ++k)
    takeRef(b, part, r.verts[static_cast<std::size_t>(k)]);
  r.nb = take<std::uint8_t>(b, part);
  if (r.nb != boundaryRefs(r.topo))
    malformed(part, std::to_string(r.nb) +
                        " boundary entities for topology " + name);
  for (int k = 0; k < r.nb; ++k)
    takeRef(b, part, r.down[static_cast<std::size_t>(k)]);
  return r;
}

Ent create(core::Mesh& mesh, const Record& r, PartId part, const KeyMap& keys,
           std::span<const Ent> earlier, gmi::Model* model) {
  gmi::Entity* cls = r.cls_dim >= 0 && model != nullptr
                         ? model->find(r.cls_dim, r.cls_tag)
                         : nullptr;
  if (r.topo == core::Topo::Vertex) return mesh.createVertex(r.x, cls);
  auto resolve = [&](const Ref& ref, core::Topo want) {
    Ent e;
    if (ref.ordinal != kNoOrdinal) {
      if (ref.ordinal < earlier.size()) e = earlier[ref.ordinal];
    } else if (ref.key.part == part) {
      e = ref.key.ent;
    } else {
      const auto it = keys.find(ref.key);
      if (it != keys.end()) e = it->second;
    }
    if (e.topo() != want || !mesh.alive(e))
      malformed(part, std::string("unresolved ") + core::topoName(want) +
                          " reference in a " + core::topoName(r.topo) +
                          " record");
    return e;
  };
  std::array<Ent, 8> verts{};
  for (int k = 0; k < r.nv; ++k)
    verts[static_cast<std::size_t>(k)] =
        resolve(r.verts[static_cast<std::size_t>(k)], core::Topo::Vertex);
  const auto nv = static_cast<std::size_t>(r.nv);
  if (r.nb == 0)  // an edge: its vertices are its boundary
    return mesh.createEntity(r.topo, {verts.data(), nv},
                             {verts.data(), nv}, cls);
  const int bd = core::topoDim(r.topo) - 1;
  std::array<Ent, core::kMaxDown> down{};
  for (int k = 0; k < r.nb; ++k)
    down[static_cast<std::size_t>(k)] =
        resolve(r.down[static_cast<std::size_t>(k)],
                core::topoBoundaryTopo(r.topo, bd, k));
  return mesh.createEntity(r.topo, {verts.data(), nv},
                           {down.data(), static_cast<std::size_t>(r.nb)}, cls);
}

void postReplies(Network& net, std::vector<std::vector<Reply>>& replies) {
  std::vector<pcu::OutBuffer> out(static_cast<std::size_t>(net.parts()));
  for (std::size_t q = 0; q < replies.size(); ++q) {
    for (const Reply& r : replies[q]) {
      auto& b = out[static_cast<std::size_t>(r.owner)];
      b.pack<std::uint64_t>(r.real.packed());
      b.pack<std::uint64_t>(r.local.packed());
    }
    replies[q].clear();
    for (std::size_t o = 0; o < out.size(); ++o)
      if (out[o].size() > 0)
        net.send(static_cast<PartId>(q), static_cast<PartId>(o),
                 std::exchange(out[o], pcu::OutBuffer{}));
  }
}

void writeRemote(pcu::OutBuffer& b, Ent local, PartId owner,
                 std::span<const Copy> copies) {
  b.pack<std::uint64_t>(local.packed());
  b.pack<std::int32_t>(owner);
  b.pack<std::uint32_t>(static_cast<std::uint32_t>(copies.size()));
  for (const Copy& c : copies) {
    b.pack<std::int32_t>(c.part);
    b.pack<std::uint64_t>(c.ent.packed());
  }
}

std::pair<Ent, Remote> readRemote(pcu::InBuffer& b, PartId part) {
  const Ent local = Ent::unpack(b.unpack<std::uint64_t>());
  Remote r{{}, b.unpack<std::int32_t>()};
  for (auto n = b.unpack<std::uint32_t>(); n > 0; --n) {
    const PartId p = b.unpack<std::int32_t>();
    const Ent e = Ent::unpack(b.unpack<std::uint64_t>());
    if (p != part) r.copies.push_back({p, e});
  }
  return {local, std::move(r)};
}

}  // namespace dist::creation
