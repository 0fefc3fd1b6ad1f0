#ifndef PUMI_CORE_MESH_HPP
#define PUMI_CORE_MESH_HPP

/// \file mesh.hpp
/// \brief The mesh database: a complete unstructured mesh representation.
///
/// This is PUMI's central data structure (paper Sec. II): a boundary
/// representation over the base topological entities vertex (0D), edge (1D),
/// face (2D) and region (3D). The representation is *complete*: one-level
/// downward and upward adjacencies are stored for every entity, so any
/// adjacency interrogation costs O(1) — bounded local work independent of
/// mesh size. Each entity additionally stores its canonical vertex list
/// (making geometric evaluation direct) and its geometric classification —
/// the highest-dimension geometric model entity it partly represents.
///
/// Dynamic mesh updates (creation and deletion of entities at any time) are
/// first-class: storage pools use free lists so adaptation and migration can
/// churn entities without reallocation of the whole mesh.

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/set.hpp"
#include "common/smallvec.hpp"
#include "common/tag.hpp"
#include "common/vec.hpp"
#include "core/entity.hpp"
#include "core/topo.hpp"

namespace gmi {
class Entity;
class Model;
}  // namespace gmi

namespace core {

namespace integrity {
struct MeshAccess;
}

using common::Vec3;

/// Upward adjacency list type (see smallvec.hpp for why not std::vector).
using UpList = common::SmallVec<Ent, 4>;

/// Maximum number of one-level boundary entities of any supported type
/// (a hex has 12 edges); sizes the stack arrays used by adjacency queries.
inline constexpr int kMaxDown = 12;

/// Result/scratch vector for the no-allocation adjacency queries
/// (Mesh::adjacentInto). Sized so typical 3D closures stay inline: an
/// interior tet-mesh vertex touches ~24 regions and ~36 faces.
using AdjVec = common::SmallVec<Ent, 48>;

class Mesh {
 public:
  using Tags = common::TagRegistry<Ent, EntHash>;
  using Tag = Tags::Tag;
  using Set = common::ItemSet<Ent, EntHash>;

  /// A mesh optionally references the geometric model its entities classify
  /// against; the model must outlive the mesh.
  explicit Mesh(gmi::Model* model = nullptr) : model_(model) {}
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  /// Deep-copy another mesh's full state into this one (entities, coords,
  /// classification, tags, sets). Ent handles are (type, index) pool slots,
  /// so handles taken against `other` address the same entities here; Tag
  /// pointers do NOT carry over — re-find() them by name. Classification
  /// pointers are shared with `other`'s model, which must outlive both.
  /// Transactional rollback snapshots use the flat Image below instead;
  /// restoring one is equivalent to this copy of the saved mesh.
  void copyFrom(const Mesh& other) {
    pools_ = other.pools_;
    coords_ = other.coords_;
    model_ = other.model_;
    tags_ = other.tags_;
    sets_ = other.sets_;
    ++topo_version_;  // new topology and data: the ledger re-hashes all
    ++data_version_;
  }

  /// A flat copy of a mesh's full state, for rollback snapshots: each
  /// pool's arrays copied whole and its upward lists flattened into one
  /// offsets array plus one entries array, so a snapshot costs a few array
  /// copies instead of one heap list per entity (SmallVec spills most
  /// vertex and edge up-lists). Coords, classification, tags and sets are
  /// copied as copyFrom() copies them. An image reused for the next
  /// saveImage() keeps its array capacity.
  class Image {
   private:
    friend class Mesh;
    struct PoolImage {
      int stride_verts = 0;
      int stride_down = 0;
      std::vector<Ent> verts;
      std::vector<Ent> down;
      std::vector<gmi::Entity*> cls;
      std::vector<char> alive;
      std::vector<std::uint32_t> free_list;
      std::size_t live = 0;
      std::vector<std::uint32_t> up_first = {0};  ///< slots + 1 offsets into up
      std::vector<Ent> up;
    };
    std::array<PoolImage, kTopoCount> pools_;
    std::vector<Vec3> coords_;
    gmi::Model* model_ = nullptr;
    Tags tags_;
    std::unordered_map<std::string, Set> sets_;
  };

  /// Record this mesh's full state into `out` (its earlier content is
  /// replaced).
  void saveImage(Image& out) const;

  /// Put back the state `in` recorded, exactly as copyFrom() of the saved
  /// mesh would: same pool slots, free-list order and up-list order, and
  /// the same version bumps. Tag pointers do not carry over.
  void restoreImage(const Image& in);

  [[nodiscard]] gmi::Model* model() const { return model_; }

  /// --- entity creation & deletion -------------------------------------

  /// Create a mesh vertex at `x`, classified on `cls` (may be null).
  Ent createVertex(const Vec3& x, gmi::Entity* cls = nullptr);

  /// Find-or-create the entity of type `t` over the given vertices
  /// (canonical template order), creating any missing intermediate
  /// entities. Newly created entities are classified on `cls`; existing
  /// entities keep their classification.
  Ent buildElement(Topo t, std::span<const Ent> verts,
                   gmi::Entity* cls = nullptr);

  /// Create a new entity of type `t` directly from its canonical vertices
  /// and its one-level boundary `down` (template order; for an edge, its
  /// two vertices), classified on `cls`. No find-or-create search: the
  /// caller guarantees the boundary exists and the entity does not. This
  /// is the receiving side of ghost and migration creation records, which
  /// name every boundary entity of the records they carry.
  Ent createEntity(Topo t, std::span<const Ent> verts,
                   std::span<const Ent> down, gmi::Entity* cls = nullptr);

  /// Delete an entity. It must not bound any live higher-dimension entity.
  /// Tag values attached to it are dropped; handles to it become invalid.
  void destroy(Ent e);

  /// --- basic queries ----------------------------------------------------

  [[nodiscard]] bool alive(Ent e) const;
  /// Entity count of one dimension (0..3).
  [[nodiscard]] std::size_t count(int dim) const;
  [[nodiscard]] std::size_t countTopo(Topo t) const;
  /// Pool slots of one type, live and free: every handle of type `t` has
  /// index < slots(t), so side arrays indexed by Ent::index() size by it.
  [[nodiscard]] std::uint32_t slots(Topo t) const { return pool(t).slots(); }
  /// Highest dimension with live entities (-1 for an empty mesh).
  [[nodiscard]] int dim() const;

  [[nodiscard]] Vec3 point(Ent v) const;
  void setPoint(Ent v, const Vec3& x);

  [[nodiscard]] gmi::Entity* classification(Ent e) const;
  void classify(Ent e, gmi::Entity* cls);

  /// --- adjacency (all O(1): bounded local work) -------------------------

  /// Canonical vertices of an entity.
  [[nodiscard]] std::span<const Ent> verts(Ent e) const;

  /// Downward adjacency: fills `out` with the entities of dimension `d`
  /// bounding `e`, in canonical template order; returns the count.
  /// `out` must hold at least kMaxDown entries. One-level boundaries and
  /// vertices are read from storage; region -> edge walks the edges stored
  /// on the region's faces (no vertex search).
  int downward(Ent e, int d, Ent* out) const;

  /// One-level upward adjacency (dimension dim(e)+1).
  [[nodiscard]] const UpList& up(Ent e) const;

  /// General adjacency in either direction, deduplicated; `d` may be any
  /// dimension. For d == dim(e) returns {e}. Allocates its result — loops
  /// should use adjacentInto() instead.
  [[nodiscard]] std::vector<Ent> adjacent(Ent e, int d) const;

  /// No-allocation general adjacency: clears `out`, fills it with the
  /// deduplicated entities of dimension `d` adjacent to `e` (same contents
  /// and order as adjacent()), returns the count. `out` stays inline for
  /// typical 3D closures; reuse one AdjVec across a loop. Upward levels
  /// deduplicate through a hash set in O(1) per entity; the set lives on
  /// the stack and spills to the heap only for a very large star.
  int adjacentInto(Ent e, int d, AdjVec& out) const;

  /// Monotone counter bumped by every topology mutation; equality of two
  /// observations proves no entity was created or destroyed in between.
  [[nodiscard]] std::uint64_t topoVersion() const { return topo_version_; }

  /// Monotone counter bumped by every non-topological data mutation
  /// (setPoint, classify, copyFrom). Together with topoVersion() it gates
  /// the integrity ledger's lazy re-hashing of pool/coordinate sections:
  /// both counters unchanged proves no *legitimate* write touched them.
  [[nodiscard]] std::uint64_t dataVersion() const { return data_version_; }

  /// Find an existing entity of type `t` over exactly these vertices
  /// (any order); null handle when absent.
  [[nodiscard]] Ent findEntity(Topo t, std::span<const Ent> verts) const;

  /// --- iteration ---------------------------------------------------------

  /// Forward iterator over live entities of one dimension, stable under
  /// concurrent reads (not under creation/deletion).
  class EntIter {
   public:
    EntIter(const Mesh* mesh, int dim, bool at_end);
    Ent operator*() const;
    EntIter& operator++();
    friend bool operator==(const EntIter& a, const EntIter& b) {
      return a.topo_pos_ == b.topo_pos_ && a.index_ == b.index_;
    }
    friend bool operator!=(const EntIter& a, const EntIter& b) {
      return !(a == b);
    }

   private:
    void settle();
    const Mesh* mesh_;
    std::span<const Topo> topos_;
    std::size_t topo_pos_;
    std::uint32_t index_;
  };

  struct EntRange {
    const Mesh* mesh;
    int d;
    [[nodiscard]] EntIter begin() const { return EntIter(mesh, d, false); }
    [[nodiscard]] EntIter end() const { return EntIter(mesh, d, true); }
  };
  /// Range over live entities of dimension d (iteration order is by type
  /// then index, deterministic for a given construction history).
  [[nodiscard]] EntRange entities(int d) const { return EntRange{this, d}; }

  /// Materialized list of live entities of dimension d.
  [[nodiscard]] std::vector<Ent> all(int d) const;

  /// --- tags & sets --------------------------------------------------------

  [[nodiscard]] Tags& tags() { return tags_; }
  [[nodiscard]] const Tags& tags() const { return tags_; }

  Set& createSet(const std::string& name);
  [[nodiscard]] Set* findSet(const std::string& name);
  void destroySet(const std::string& name);

 private:
  struct Pool {
    int stride_verts = 0;  ///< vertices per entity
    int stride_down = 0;   ///< one-level boundary entities per entity
    std::vector<Ent> verts;
    std::vector<Ent> down;
    std::vector<UpList> up;
    std::vector<gmi::Entity*> cls;
    std::vector<char> alive;
    std::vector<std::uint32_t> free_list;
    std::size_t live = 0;

    [[nodiscard]] std::uint32_t slots() const {
      return static_cast<std::uint32_t>(alive.size());
    }
  };

  Pool& pool(Topo t) { return pools_[static_cast<std::size_t>(t)]; }
  [[nodiscard]] const Pool& pool(Topo t) const {
    return pools_[static_cast<std::size_t>(t)];
  }

  /// Allocate a slot in t's pool and record verts/down/cls; registers this
  /// entity in the up lists of its one-level boundary.
  Ent allocate(Topo t, std::span<const Ent> vs, std::span<const Ent> down,
               gmi::Entity* cls);

  std::array<Pool, kTopoCount> pools_;
  std::vector<Vec3> coords_;
  gmi::Model* model_;
  Tags tags_;
  std::unordered_map<std::string, Set> sets_;
  std::uint64_t topo_version_ = 0;
  std::uint64_t data_version_ = 0;

  friend class EntIterAccess;
  /// integrity.hpp: byte-level access to pools/coords for the sectioned
  /// checksum ledger and the deterministic memory-fault injector.
  friend struct integrity::MeshAccess;
};

/// --- hot accessors, inline: every per-entity loop calls them -------------

inline bool Mesh::alive(Ent e) const {
  if (e.null()) return false;
  const Pool& p = pool(e.topo());
  return e.index() < p.slots() && p.alive[e.index()];
}

inline Vec3 Mesh::point(Ent v) const {
  assert(v.topo() == Topo::Vertex && alive(v));
  return coords_[v.index()];
}

inline gmi::Entity* Mesh::classification(Ent e) const {
  assert(alive(e));
  return pool(e.topo()).cls[e.index()];
}

inline std::span<const Ent> Mesh::verts(Ent e) const {
  assert(alive(e));
  // A vertex is not stored in a verts array of its own: its list is empty
  // here, and downward() answers for vertices.
  if (e.topo() == Topo::Vertex) return {};
  const Pool& p = pool(e.topo());
  return {p.verts.data() + std::size_t{e.index()} * p.stride_verts,
          static_cast<std::size_t>(p.stride_verts)};
}

inline const UpList& Mesh::up(Ent e) const {
  assert(alive(e));
  return pool(e.topo()).up[e.index()];
}

inline Ent Mesh::EntIter::operator*() const {
  return Ent(topos_[topo_pos_], index_);
}

inline Mesh::EntIter& Mesh::EntIter::operator++() {
  ++index_;
  settle();
  return *this;
}

inline void Mesh::EntIter::settle() {
  while (topo_pos_ < topos_.size()) {
    const Pool& p = mesh_->pool(topos_[topo_pos_]);
    while (index_ < p.slots() && !p.alive[index_]) ++index_;
    if (index_ < p.slots()) return;
    ++topo_pos_;
    index_ = 0;
  }
  index_ = 0;  // canonical end state
}

}  // namespace core

#endif  // PUMI_CORE_MESH_HPP
