#ifndef PUMI_CORE_TAGIO_HPP
#define PUMI_CORE_TAGIO_HPP

/// \file tagio.hpp (core)
/// \brief Serialization of mesh tag values for entity migration/ghosting.
///
/// Tags of element type int, long and double (any component count) travel
/// with their entities during migration and ghosting; other element types
/// are part-local and are not transported (documented limitation matching
/// the ITAPS basic tag types).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/smallvec.hpp"
#include "core/mesh.hpp"
#include "pcu/buffer.hpp"

namespace core {

/// The transportable tags of one mesh, resolved once: the tags of element
/// type int, long or double (restricted to the tag named `only` when that
/// is non-empty), in registry order, each with its type code and typed
/// value table. Packing an entity then costs one value lookup per tag —
/// migration, ghosting and tag sync pack thousands of entities per plan. A
/// plan stays valid while the mesh's set of tags is unchanged (values may
/// change freely).
class TagPlan {
  struct Value {
    const std::byte* bytes = nullptr;
    std::uint64_t count = 0;  ///< elements, not bytes
  };
  struct Entry;
  /// One tag's value found on an entity.
  struct Found {
    const Entry* entry;
    Value v;
  };
  /// One tag's values by topology and pool slot.
  using SlotRows = std::array<std::vector<Value>, kTopoCount>;

 public:
  explicit TagPlan(const Mesh& mesh, const std::string& only = "");

  /// Append every planned tag value attached to `e`: a u32 count, then per
  /// tag its name, type code, component count and value vector (the
  /// record unpackTags reads).
  void pack(Ent e, pcu::OutBuffer& buf) const;

  /// The plan's values indexed by pool slot, read once from each tag's
  /// items: a record then costs one array load per tag instead of a hash
  /// probe. meshToBytes writes every entity's record through one. Valid
  /// while the mesh's tag values are unchanged; tag storage itself is not
  /// touched.
  class SlotView {
   public:
    SlotView(const TagPlan& plan, const Mesh& mesh);

    /// Bytes the records of every live entity hold beyond their u32
    /// counts: what a writer adds to size a whole-mesh stream.
    [[nodiscard]] std::size_t valueBytes() const { return value_bytes_; }

    /// Write `e`'s record: the bytes pack() appends for it.
    void write(Ent e, pcu::SizedWriter& out) const;
    void write(Ent e, pcu::OutBuffer& out) const;

    /// Bytes write() writes for `e`.
    [[nodiscard]] std::size_t recordBytes(Ent e) const;

   private:
    /// The values attached to `e`, in plan order.
    [[nodiscard]] common::SmallVec<Found, 8> found(Ent e) const;

    const TagPlan& plan_;
    std::vector<SlotRows> rows_;  ///< [entry][topo][slot]
    std::size_t value_bytes_ = 0;
  };

 private:
  struct Entry {
    std::string name;
    std::uint8_t code = 0;
    std::uint32_t components = 0;
    std::size_t elem_bytes = 0;
    const void* table = nullptr;  ///< the tag's typed value map
    bool (*find)(const void* table, Ent e, Value& out) = nullptr;
    /// Fill `rows` from every value on a live entity of `mesh`; returns
    /// the bytes their records hold.
    std::size_t (*index)(const Entry& entry, const Mesh& mesh,
                         SlotRows& rows) = nullptr;
    /// Bytes of one value's record: name, type code, components, values.
    [[nodiscard]] std::size_t recordBytes(std::uint64_t count) const;
  };
  template <typename T>
  static bool findTyped(const void* table, Ent e, Value& out);
  template <typename T>
  static std::size_t indexTyped(const Entry& entry, const Mesh& mesh,
                                SlotRows& rows);
  template <typename T>
  void add(const common::TagBase<Ent>& tag, std::uint8_t code);
  template <typename Sink>
  static void writeRecord(std::span<const Found> found, Sink&& sink);

  std::vector<Entry> entries_;
};

/// Read tag values written by TagPlan::pack and attach them to `e` in `mesh`,
/// creating same-named tags as needed.
void unpackTags(core::Mesh& mesh, core::Ent e, pcu::InBuffer& buf);

/// Advance past a TagPlan::pack record without applying it.
void skipTags(pcu::InBuffer& buf);

}  // namespace core

#endif  // PUMI_CORE_TAGIO_HPP
