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

/// Marks an empty slot of a SlotView row (a zero-length value is present
/// with count 0).
constexpr std::uint64_t kNoValue = ~std::uint64_t{0};

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
std::size_t TagPlan::indexTyped(const Entry& entry, const Mesh& mesh,
                                SlotRows& rows) {
  const auto& values = static_cast<const Values<T>*>(entry.table)->values;
  std::size_t bytes = 0;
  for (const auto& [e, v] : values) {
    if (!mesh.alive(e)) continue;  // no record ever names it
    auto& row = rows[static_cast<std::size_t>(e.topo())];
    if (row.empty()) row.assign(mesh.slots(e.topo()), Value{nullptr, kNoValue});
    row[e.index()] = {reinterpret_cast<const std::byte*>(v.data()), v.size()};
    bytes += entry.recordBytes(v.size());
  }
  return bytes;
}

std::size_t TagPlan::Entry::recordBytes(std::uint64_t count) const {
  return sizeof(std::uint64_t) + name.size() + sizeof(code) +
         sizeof(components) + sizeof(std::uint64_t) + count * elem_bytes;
}

template <typename T>
void TagPlan::add(const common::TagBase<Ent>& tag, std::uint8_t code) {
  const auto& typed = dynamic_cast<const Values<T>&>(tag);
  entries_.push_back({tag.name(), code,
                      static_cast<std::uint32_t>(tag.components()), sizeof(T),
                      &typed, &findTyped<T>, &indexTyped<T>});
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

// The one definition of the record format: a u32 count, then per value
// its tag's name, type code and component count and the value vector.
template <typename Sink>
void TagPlan::writeRecord(std::span<const Found> found, Sink&& sink) {
  auto put = [&sink](const auto& x) { sink(&x, sizeof(x)); };
  put(static_cast<std::uint32_t>(found.size()));
  for (const auto& [entry, v] : found) {
    put(static_cast<std::uint64_t>(entry->name.size()));
    sink(entry->name.data(), entry->name.size());
    put(entry->code);
    put(entry->components);
    put(v.count);
    sink(v.bytes, v.count * entry->elem_bytes);
  }
}

void TagPlan::pack(Ent e, pcu::OutBuffer& buf) const {
  // One lookup per tag: remember what was found so the count can lead the
  // record. Meshes carry a handful of transportable tags.
  common::SmallVec<Found, 8> found;
  for (const Entry& entry : entries_) {
    Value v;
    if (entry.find(entry.table, e, v)) found.push_back({&entry, v});
  }
  writeRecord({found.data(), found.size()},
              [&buf](const void* p, std::size_t n) { buf.packBytes(p, n); });
}

TagPlan::SlotView::SlotView(const TagPlan& plan, const Mesh& mesh)
    : plan_(plan), rows_(plan.entries_.size()) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Entry& entry = plan.entries_[i];
    value_bytes_ += entry.index(entry, mesh, rows_[i]);
  }
}

common::SmallVec<TagPlan::Found, 8> TagPlan::SlotView::found(Ent e) const {
  const auto t = static_cast<std::size_t>(e.topo());
  common::SmallVec<Found, 8> out;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& row = rows_[i][t];
    if (e.index() < row.size() && row[e.index()].count != kNoValue)
      out.push_back({&plan_.entries_[i], row[e.index()]});
  }
  return out;
}

void TagPlan::SlotView::write(Ent e, pcu::SizedWriter& out) const {
  const auto values = found(e);
  writeRecord({values.data(), values.size()},
              [&out](const void* p, std::size_t n) { out.putBytes(p, n); });
}

void TagPlan::SlotView::write(Ent e, pcu::OutBuffer& out) const {
  const auto values = found(e);
  writeRecord({values.data(), values.size()},
              [&out](const void* p, std::size_t n) { out.packBytes(p, n); });
}

std::size_t TagPlan::SlotView::recordBytes(Ent e) const {
  const auto t = static_cast<std::size_t>(e.topo());
  std::size_t n = sizeof(std::uint32_t);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& row = rows_[i][t];
    if (e.index() < row.size() && row[e.index()].count != kNoValue)
      n += plan_.entries_[i].recordBytes(row[e.index()].count);
  }
  return n;
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
