#include "core/tagio.hpp"

#include <cstdint>
#include <typeinfo>

#include "common/smallvec.hpp"
#include "pcu/error.hpp"

namespace core {

namespace {

enum class TagType : std::uint8_t { Int = 0, Long = 1, Double = 2 };

/// Read a tag record's type code, rejecting one no writer emits (its
/// payload width is unknown, so the rest of the stream cannot be trusted).
TagType unpackTagType(pcu::InBuffer& buf) {
  const auto code = buf.unpack<std::uint8_t>();
  if (code > static_cast<std::uint8_t>(TagType::Double))
    throw pcu::Error(pcu::ErrorCode::kProtocol, -1,
                     "unpackTags: unknown tag type code " +
                         std::to_string(code));
  return static_cast<TagType>(code);
}

template <typename T>
void unpackTyped(core::Mesh& mesh, core::Ent e, const std::string& name,
                 std::uint32_t components, pcu::InBuffer& buf) {
  auto values = buf.unpackVector<T>();
  core::Mesh::Tag tag = mesh.tags().find(name);
  if (tag == nullptr) tag = mesh.tags().create<T>(name, components);
  mesh.tags().set<T>(tag, e, std::move(values));
}

template <typename T>
using Values = common::TagData<Ent, T, EntHash>;

}  // namespace

template <typename T>
bool TagPlan::findTyped(const void* table, Ent e, Value& out) {
  const auto& values = static_cast<const Values<T>*>(table)->values;
  const auto it = values.find(e);
  if (it == values.end()) return false;
  out = {reinterpret_cast<const std::byte*>(it->second.data()),
         it->second.size()};
  return true;
}

template <typename T>
void TagPlan::add(const common::TagBase<Ent>& tag, std::uint8_t code) {
  const auto& typed = dynamic_cast<const Values<T>&>(tag);
  entries_.push_back({tag.name(), code,
                      static_cast<std::uint32_t>(tag.components()), sizeof(T),
                      &typed, &findTyped<T>});
}

TagPlan::TagPlan(const Mesh& mesh, const std::string& only) {
  for (const auto* tag : mesh.tags().list()) {
    if (!only.empty() && tag->name() != only) continue;
    if (tag->type() == typeid(int))
      add<int>(*tag, static_cast<std::uint8_t>(TagType::Int));
    else if (tag->type() == typeid(long))
      add<long>(*tag, static_cast<std::uint8_t>(TagType::Long));
    else if (tag->type() == typeid(double))
      add<double>(*tag, static_cast<std::uint8_t>(TagType::Double));
  }
}

void TagPlan::pack(Ent e, pcu::OutBuffer& buf) const {
  // One lookup per tag: remember what was found so the count can lead the
  // record. Meshes carry a handful of transportable tags.
  struct Found {
    const Entry* entry;
    Value v;
  };
  common::SmallVec<Found, 8> found;
  for (const Entry& entry : entries_) {
    Value v;
    if (entry.find(entry.table, e, v)) found.push_back({&entry, v});
  }
  buf.pack<std::uint32_t>(found.size());
  for (const auto& [entry, v] : found) {
    buf.packString(entry->name);
    buf.pack(entry->code);
    buf.pack<std::uint32_t>(entry->components);
    buf.pack<std::uint64_t>(v.count);
    buf.packBytes(v.bytes, v.count * entry->elem_bytes);
  }
}

void skipTags(pcu::InBuffer& buf) {
  const auto count = buf.unpack<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    (void)buf.unpackString();
    const TagType code = unpackTagType(buf);
    (void)buf.unpack<std::uint32_t>();
    switch (code) {
      case TagType::Int:
        (void)buf.unpackVector<int>();
        break;
      case TagType::Long:
        (void)buf.unpackVector<long>();
        break;
      case TagType::Double:
        (void)buf.unpackVector<double>();
        break;
    }
  }
}

void unpackTags(core::Mesh& mesh, core::Ent e, pcu::InBuffer& buf) {
  const auto count = buf.unpack<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = buf.unpackString();
    const TagType code = unpackTagType(buf);
    const auto components = buf.unpack<std::uint32_t>();
    switch (code) {
      case TagType::Int:
        unpackTyped<int>(mesh, e, name, components, buf);
        break;
      case TagType::Long:
        unpackTyped<long>(mesh, e, name, components, buf);
        break;
      case TagType::Double:
        unpackTyped<double>(mesh, e, name, components, buf);
        break;
    }
  }
}

}  // namespace core
