#include "core/integrity.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32.hpp"
#include "core/topo.hpp"

namespace core::integrity {

namespace {

template <class T>
std::span<const std::byte> vecBytes(const std::vector<T>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T)};
}

}  // namespace

std::vector<MeshAccess::SectionRef> MeshAccess::sections(const Mesh& m) {
  std::vector<SectionRef> out;
  const std::uint64_t tv = m.topo_version_;
  const std::uint64_t dv = m.data_version_;
  if (!m.coords_.empty())
    out.push_back({"coords", tv, dv, vecBytes(m.coords_)});
  for (int t = 0; t < kTopoCount; ++t) {
    const auto& pool = m.pools_[static_cast<std::size_t>(t)];
    if (pool.alive.empty()) continue;
    const std::string base =
        std::string("pool:") + topoName(static_cast<Topo>(t));
    if (!pool.verts.empty())
      out.push_back({base + ":verts", tv, dv, vecBytes(pool.verts)});
    if (!pool.down.empty())
      out.push_back({base + ":down", tv, dv, vecBytes(pool.down)});
    out.push_back({base + ":alive", tv, dv, vecBytes(pool.alive)});
  }
  return out;
}

std::span<std::byte> MeshAccess::mutableSection(Mesh& m,
                                                const std::string& name) {
  for (const SectionRef& s : sections(m)) {
    if (s.name != name) continue;
    // m is mutable, so un-consting the enumerated view is well-defined.
    return {const_cast<std::byte*>(s.bytes.data()), s.bytes.size()};
  }
  return {};
}

std::vector<std::byte> tagStream(const common::TagBase<Ent>* tag) {
  std::vector<Ent> items = tag->items();
  std::sort(items.begin(), items.end(),
            [](Ent a, Ent b) { return a.packed() < b.packed(); });
  // One payload lookup per item; the stream is sized once and filled.
  std::vector<std::span<const std::byte>> payloads;
  payloads.reserve(items.size());
  std::size_t total = 0;
  for (Ent e : items) {
    payloads.push_back(tag->valueBytes(e));
    total += 16 + payloads.back().size();
  }
  std::vector<std::byte> out(total);
  std::byte* at = out.data();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint64_t head[2] = {items[i].packed(), payloads[i].size()};
    std::memcpy(at, head, 16);
    if (!payloads[i].empty())
      std::memcpy(at + 16, payloads[i].data(), payloads[i].size());
    at += 16 + payloads[i].size();
  }
  return out;
}

Ledger::Section Ledger::makeSection(std::span<const std::byte> bytes,
                                    std::uint64_t va, std::uint64_t vb,
                                    bool external) {
  Section s;
  s.va = va;
  s.vb = vb;
  s.bytes = bytes.size();
  s.external = external;
  const std::size_t nblocks = (bytes.size() + kBlockBytes - 1) / kBlockBytes;
  s.blocks.reserve(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t at = b * kBlockBytes;
    const std::size_t n = std::min(kBlockBytes, bytes.size() - at);
    s.blocks.push_back(common::crc32c(bytes.data() + at, n));
  }
  s.crc = common::crc32c(
      reinterpret_cast<const std::byte*>(s.blocks.data()),
      s.blocks.size() * sizeof(std::uint32_t));
  bytes_hashed_ += bytes.size();
  ++sections_rehashed_;
  return s;
}

void Ledger::compare(const std::string& name, const Section& stored,
                     std::span<const std::byte> bytes,
                     std::vector<Mismatch>& out) {
  if (bytes.size() != stored.bytes) {
    // Container metadata diverged with no version bump: report the whole
    // stream (block CRCs cannot localize across different lengths).
    out.push_back({name, 0, std::max(bytes.size(), stored.bytes) - 1});
    return;
  }
  const Section now = makeSection(bytes, stored.va, stored.vb, stored.external);
  if (now.crc == stored.crc) return;
  std::size_t first = stored.blocks.size();
  std::size_t last = 0;
  for (std::size_t b = 0; b < stored.blocks.size(); ++b) {
    if (now.blocks[b] == stored.blocks[b]) continue;
    first = std::min(first, b);
    last = std::max(last, b);
  }
  if (first > last) return;  // CRC-of-CRCs collision-proofing; nothing local
  out.push_back({name, first * kBlockBytes,
                 std::min(last * kBlockBytes + kBlockBytes, bytes.size()) - 1});
}

void Ledger::seal(const Mesh& m) {
  std::vector<std::string> seen;
  auto upsert = [&](const std::string& name, std::uint64_t va,
                    std::uint64_t vb, std::span<const std::byte> bytes) {
    seen.push_back(name);
    auto it = sections_.find(name);
    if (it != sections_.end() && !it->second.external && it->second.va == va &&
        it->second.vb == vb)
      return;  // versions unchanged: the stored hash is still valid
    sections_[name] = makeSection(bytes, va, vb, false);
  };
  for (const auto& ref : MeshAccess::sections(m))
    upsert(ref.name, ref.va, ref.vb, ref.bytes);
  for (const auto* tag : m.tags().list()) {
    // Check the version before building the stream: an unchanged tag costs
    // one lookup, not a sorted serialization of its every value.
    std::string name = "tag:" + tag->name();
    auto it = sections_.find(name);
    if (it == sections_.end() || it->second.external ||
        it->second.va != tag->version() || it->second.vb != 0)
      it = sections_.insert_or_assign(
          it, name, makeSection(tagStream(tag), tag->version(), 0, false));
    seen.push_back(std::move(name));
  }
  // Prune mesh-owned sections that vanished (destroyed tag, drained pool);
  // external sections belong to the caller.
  std::sort(seen.begin(), seen.end());
  for (auto it = sections_.begin(); it != sections_.end();) {
    if (!it->second.external &&
        !std::binary_search(seen.begin(), seen.end(), it->first))
      it = sections_.erase(it);
    else
      ++it;
  }
  sealed_ = true;
}

void Ledger::audit(const Mesh& m, std::vector<Mismatch>& out) {
  if (!sealed_) return;
  auto check = [&](const std::string& name, std::uint64_t va, std::uint64_t vb,
                   std::span<const std::byte> bytes) {
    auto it = sections_.find(name);
    if (it == sections_.end()) return;          // new since the seal: legit
    if (it->second.va != va || it->second.vb != vb) return;  // legit write
    compare(name, it->second, bytes, out);
  };
  for (const auto& ref : MeshAccess::sections(m))
    check(ref.name, ref.va, ref.vb, ref.bytes);
  for (const auto* tag : m.tags().list()) {
    auto it = sections_.find("tag:" + tag->name());
    if (it == sections_.end() || it->second.va != tag->version()) continue;
    const auto stream = tagStream(tag);
    compare("tag:" + tag->name(), it->second, stream, out);
  }
}

bool Ledger::externalCurrent(const std::string& name,
                             std::uint64_t version) const {
  auto it = sections_.find(name);
  return it != sections_.end() && it->second.external &&
         it->second.va == version;
}

void Ledger::sealExternal(const std::string& name, std::uint64_t version,
                          std::span<const std::byte> bytes) {
  sections_[name] = makeSection(bytes, version, 0, true);
  sealed_ = true;
}

void Ledger::auditExternal(const std::string& name,
                           std::span<const std::byte> bytes,
                           std::vector<Mismatch>& out) {
  auto it = sections_.find(name);
  if (it == sections_.end()) return;
  compare(name, it->second, bytes, out);
}

std::vector<std::string> Ledger::sectionNames() const {
  std::vector<std::string> out;
  out.reserve(sections_.size());
  for (const auto& [name, s] : sections_) out.push_back(name);
  return out;
}

std::optional<std::uint32_t> Ledger::sectionCrc(
    const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) return std::nullopt;
  return it->second.crc;
}

std::size_t Ledger::coveredBytes() const {
  std::size_t n = 0;
  for (const auto& [name, s] : sections_) n += s.bytes;
  return n;
}

}  // namespace core::integrity
