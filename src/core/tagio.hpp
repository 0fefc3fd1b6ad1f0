#ifndef PUMI_CORE_TAGIO_HPP
#define PUMI_CORE_TAGIO_HPP

/// \file tagio.hpp (core)
/// \brief Serialization of mesh tag values for entity migration/ghosting.
///
/// Tags of element type int, long and double (any component count) travel
/// with their entities during migration and ghosting; other element types
/// are part-local and are not transported (documented limitation matching
/// the ITAPS basic tag types).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mesh.hpp"
#include "pcu/buffer.hpp"

namespace core {

/// The transportable tags of one mesh, resolved once: the tags of element
/// type int, long or double (restricted to the tag named `only` when that
/// is non-empty), in registry order, each with its type code and typed
/// value table. Packing an entity then costs one value lookup per tag —
/// meshToBytes, migration, ghosting and tag sync pack thousands of
/// entities per plan. A plan stays valid while the mesh's set of tags is
/// unchanged (values may change freely).
class TagPlan {
 public:
  explicit TagPlan(const Mesh& mesh, const std::string& only = "");

  /// Append every planned tag value attached to `e`: a u32 count, then per
  /// tag its name, type code, component count and value vector (the
  /// record unpackTags reads).
  void pack(Ent e, pcu::OutBuffer& buf) const;

 private:
  struct Value {
    const std::byte* bytes = nullptr;
    std::uint64_t count = 0;  ///< elements, not bytes
  };
  struct Entry {
    std::string name;
    std::uint8_t code = 0;
    std::uint32_t components = 0;
    std::size_t elem_bytes = 0;
    const void* table = nullptr;  ///< the tag's typed value map
    bool (*find)(const void* table, Ent e, Value& out) = nullptr;
  };
  template <typename T>
  static bool findTyped(const void* table, Ent e, Value& out);
  template <typename T>
  void add(const common::TagBase<Ent>& tag, std::uint8_t code);

  std::vector<Entry> entries_;
};

/// Read tag values written by TagPlan::pack and attach them to `e` in `mesh`,
/// creating same-named tags as needed.
void unpackTags(core::Mesh& mesh, core::Ent e, pcu::InBuffer& buf);

/// Advance past a TagPlan::pack record without applying it.
void skipTags(pcu::InBuffer& buf);

}  // namespace core

#endif  // PUMI_CORE_TAGIO_HPP
