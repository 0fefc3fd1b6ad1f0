#include "dist/integrity.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <utility>

#include "dist/pario.hpp"
#include "dist/partio.hpp"
#include "pcu/buffer.hpp"
#include "pcu/error.hpp"
#include "pcu/trace.hpp"

namespace dist {
namespace integrity {

namespace {

std::uint64_t u64(PartId p) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(p));
}

/// Accumulates the enclosing scope's wall time into a report field — on
/// every exit path, including the kIntegrity throw. The self-timing is what
/// lets the integrity bench price the armor directly instead of through a
/// noisy A/B subtraction.
struct MsAccum {
  double& into;
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  ~MsAccum() {
    into += std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
  }
};

/// One flippable field of a remote/ghost record: the meaningful bits only
/// (padding bytes are invisible to the canonical streams, so a flip there
/// would be genuinely silent — exactly what the armor must never produce).
struct FieldFlip {
  std::function<void(int)> flip;  ///< flip bit `b` (0-based) of the field
  int bits = 0;
};

void flipPartId(PartId* p, int b) {
  *p = static_cast<PartId>(static_cast<std::uint32_t>(*p) ^
                           (std::uint32_t{1} << b));
}

void pushCopyFields(std::vector<FieldFlip>& fields, Copy* c) {
  fields.push_back({[c](int b) { flipPartId(&c->part, b); }, 32});
  fields.push_back(
      {[c](int b) { c->ent = Ent::unpack(c->ent.packed() ^ (1ull << b)); },
       40});  // 32 index bits + 8 topo bits; padding excluded by design
}

/// The meaningful fields of a part's boundary/ghost tables in handle
/// order. The returned lambdas point into the live maps: use before any
/// insertion (a rehash would invalidate them). The maps are passed in from
/// Armor's friend context (this helper has no access of its own).
std::vector<FieldFlip> remoteFields(
    const core::Mesh& m, common::FlatMap<Ent, Remote, EntHash>& remotes,
    common::FlatMap<Ent, Copy, EntHash>& ghost_source,
    common::FlatMap<Ent, std::vector<Copy>, EntHash>& ghosted_on) {
  std::vector<FieldFlip> fields;
  partio::forEachInSlotOrder(m, remotes, [&fields](auto& kv) {
    Remote* r = &kv.second;
    fields.push_back({[r](int b) { flipPartId(&r->owner, b); }, 32});
    for (Copy& c : r->copies) pushCopyFields(fields, &c);
  });
  partio::forEachInSlotOrder(m, ghost_source, [&fields](auto& kv) {
    pushCopyFields(fields, &kv.second);
  });
  partio::forEachInSlotOrder(m, ghosted_on, [&fields](auto& kv) {
    for (Copy& c : kv.second) pushCopyFields(fields, &c);
  });
  return fields;
}

}  // namespace

/// --- canonical streams of the external (non-mesh) sections -----------------

// Each stream is sized first, then written in one slot-order walk.
std::vector<std::byte> remotesStream(const Part& p) {
  const auto& remotes = p.remotes();
  std::size_t words = 0;
  for (const auto& [e, r] : remotes) words += 3 + 2 * r.copies.size();
  pcu::SizedWriter out(words * 8);
  partio::forEachInSlotOrder(p.mesh(), remotes, [&out](const auto& kv) {
    const Remote& r = kv.second;
    out.put(kv.first.packed());
    out.put(u64(r.owner));
    out.put<std::uint64_t>(r.copies.size());
    for (const Copy& c : r.copies) {
      out.put(u64(c.part));
      out.put(c.ent.packed());
    }
  });
  return std::move(out).take();
}

std::vector<std::byte> ghostSourceStream(const Part& p) {
  const auto& sources = CheckpointAccess::ghostSource(p);
  pcu::SizedWriter out(3 * 8 * sources.size());
  partio::forEachInSlotOrder(p.mesh(), sources, [&out](const auto& kv) {
    out.put(kv.first.packed());
    out.put(u64(kv.second.part));
    out.put(kv.second.ent.packed());
  });
  return std::move(out).take();
}

std::vector<std::byte> ghostedOnStream(const Part& p) {
  const auto& ghosted = CheckpointAccess::ghostedOn(p);
  std::size_t words = 0;
  for (const auto& [e, copies] : ghosted) words += 2 + 2 * copies.size();
  pcu::SizedWriter out(words * 8);
  partio::forEachInSlotOrder(p.mesh(), ghosted, [&out](const auto& kv) {
    out.put(kv.first.packed());
    out.put<std::uint64_t>(kv.second.size());
    for (const Copy& c : kv.second) {
      out.put(u64(c.part));
      out.put(c.ent.packed());
    }
  });
  return std::move(out).take();
}

/// --- seal / audit -----------------------------------------------------------

void Armor::ensureParts() {
  if (ledgers_.size() < static_cast<std::size_t>(pm_.parts()))
    ledgers_.resize(static_cast<std::size_t>(pm_.parts()));
}

// The three external sections are keyed on the part's table version: a
// seal rebuilds a stream only when the version moved, an audit compares
// one only while it has not.
void Armor::sealPart(PartId p) {
  auto& led = ledgers_[static_cast<std::size_t>(p)];
  const Part& part = pm_.part(p);
  led.seal(part.mesh());
  const std::uint64_t v = part.tableVersion();
  if (!led.externalCurrent("remotes", v))
    led.sealExternal("remotes", v, remotesStream(part));
  if (!led.externalCurrent("ghost-src", v))
    led.sealExternal("ghost-src", v, ghostSourceStream(part));
  if (!led.externalCurrent("ghost-on", v))
    led.sealExternal("ghost-on", v, ghostedOnStream(part));
}

void Armor::auditPart(PartId p, std::vector<core::integrity::Mismatch>& out) {
  auto& led = ledgers_[static_cast<std::size_t>(p)];
  const Part& part = pm_.part(p);
  led.audit(part.mesh(), out);
  const std::uint64_t v = part.tableVersion();
  if (led.externalCurrent("remotes", v))
    led.auditExternal("remotes", remotesStream(part), out);
  if (led.externalCurrent("ghost-src", v))
    led.auditExternal("ghost-src", ghostSourceStream(part), out);
  if (led.externalCurrent("ghost-on", v))
    led.auditExternal("ghost-on", ghostedOnStream(part), out);
}

void Armor::sealAndMaybeInject() {
  MsAccum timer{rep_.seal_ms};
  ensureParts();
  for (PartId p = 0; p < pm_.parts(); ++p) sealPart(p);
  ++rep_.seals;
  // Seal, then replicate, then corrupt: refreshing the journal here — after
  // the seal, before the flip — guarantees every boundary's sealed state
  // has a matching replica, so a tier-2 repair never meets a stale
  // snapshot. The journal's stamp gate skips parts whose state provably did
  // not change; CRC dedup drops the rest whose bytes did not.
  if (journal_ != nullptr) journal_->record(pm_);
  const std::uint64_t phase = boundary_++;
  const pcu::faults::MemFlip burst = pcu::faults::fireMemFlip(phase);
  if (burst.bits > 0) injectFlips(burst);
  if (pcu::trace::enabled()) pcu::trace::counter("integrity:seals", 1);
}

void Armor::auditAndRepair(const char* where) {
  MsAccum timer{rep_.audit_ms};
  ensureParts();
  ++rep_.audits;
  const int nparts = pm_.parts();

  // Detect first across ALL parts, then repair: a tier-2/3 rebuild patches
  // mirror records on *other* parts (whose external streams then legally
  // change), so interleaving detection with repair would report phantom
  // corruption on parts audited after a rebuild.
  std::vector<std::pair<PartId, std::vector<core::integrity::Mismatch>>> bad;
  for (PartId p = 0; p < nparts; ++p) {
    std::vector<core::integrity::Mismatch> ms;
    auditPart(p, ms);
    if (!ms.empty()) bad.emplace_back(p, std::move(ms));
  }
  if (bad.empty()) return;

  for (auto& [p, ms] : bad) {
    const std::size_t at = rep_.detected.size();
    for (const auto& m : ms)
      rep_.detected.push_back(
          {p, m.section, m.first_byte, m.last_byte, 0, where});
    rep_.mismatches += ms.size();
    if (pcu::trace::enabled())
      pcu::trace::counter("integrity:mismatches",
                          static_cast<std::int64_t>(ms.size()));

    // The escalation ladder: the part's buddy-journal replica (tier 2),
    // then the last checkpoint (tier 3).
    int tier = 0;
    if (repairFromJournal(p)) {
      tier = 2;
    } else if (repairFromCheckpoint(p)) {
      tier = 3;
    }
    if (tier == 0) {
      rep_.parts_unrepaired.push_back(p);
      std::sort(rep_.parts_unrepaired.begin(), rep_.parts_unrepaired.end());
      if (pcu::trace::enabled()) pcu::trace::counter("integrity:fatal", 1);
      const auto& m0 = ms.front();
      throw pcu::Error(
          pcu::ErrorCode::kIntegrity, pm_.network().partMap().rankOf(p),
          std::string(where) + ": part " + std::to_string(p) + " section '" +
              m0.section + "' corrupt in bytes [" +
              std::to_string(m0.first_byte) + ", " +
              std::to_string(m0.last_byte) + "]" +
              (ms.size() > 1
                   ? " (+" + std::to_string(ms.size() - 1) + " more sections)"
                   : "") +
              "; repair exhausted (journal " +
              (journal_ != nullptr ? "stale or missing part" : "unset") +
              ", checkpoint " +
              (checkpoint_dir_.empty() ? "unset" : "unusable") + ")");
    }
    for (std::size_t k = at; k < rep_.detected.size(); ++k)
      rep_.detected[k].repair_tier = tier;
    rep_.parts_repaired.push_back(p);
    if (pcu::trace::enabled()) {
      pcu::trace::counter("integrity:repairs", 1);
      pcu::trace::counter(
          tier == 2 ? "integrity:repair_journal"
                    : "integrity:repair_checkpoint",
          1);
    }
  }

  // A rebuild re-indexed the part's entities and patched survivor mirrors:
  // gate on the structural invariants before trusting the repaired state.
  try {
    pm_.verify();
  } catch (const std::exception& e) {
    throw pcu::Error(pcu::ErrorCode::kIntegrity, -1,
                     std::string(where) +
                         ": post-repair verify failed: " + e.what());
  }
  // Re-key every ledger against the repaired bytes (raw layout differs
  // after a rebuild even though the content is fingerprint-identical), and
  // refresh the replica: a rebuild re-indexed handles in survivor mirror
  // records, so the journal's copies of those parts are now stale.
  for (PartId p = 0; p < nparts; ++p) sealPart(p);
  if (journal_ != nullptr) journal_->record(pm_);
}

/// --- repair tiers -----------------------------------------------------------

bool Armor::repairFromJournal(PartId p) {
  if (journal_ == nullptr) return false;
  // A replica that is absent or fails its CRCs escalates to the
  // checkpoint, and so does a stale one (the rebuild's kValidation).
  auto replica = journal_->replica(p);
  return replica && rebuildFrom(std::move(*replica), "journal");
}

bool Armor::repairFromCheckpoint(PartId p) {
  if (checkpoint_dir_.empty()) return false;
  partio::Replica replica{p, {}, {}};
  try {
    std::tie(replica.mesh, replica.meta) =
        pario::partBytes(checkpoint_dir_, p);
  } catch (const std::exception&) {
    return false;  // missing/damaged checkpoint: ladder exhausted
  }
  return rebuildFrom(std::move(replica), "checkpoint");
}

bool Armor::rebuildFrom(partio::Replica replica, const char* src) {
  const std::uint64_t replayed = replica.mesh.size() + replica.meta.size();
  std::vector<partio::Replica> one;
  one.push_back(std::move(replica));
  try {
    partio::rebuildParts(pm_, std::move(one),
                         std::string("integrity repair from ") + src);
  } catch (const pcu::Error&) {
    return false;
  }
  if (pcu::trace::enabled())
    pcu::trace::counter("integrity:bytes_replayed",
                        static_cast<std::int64_t>(replayed));
  return true;
}

/// --- deterministic fault injection ------------------------------------------

void Armor::injectFlips(const pcu::faults::MemFlip& burst) {
  const std::uint64_t seed = pcu::faults::plan().seed;
  const int nparts = pm_.parts();
  if (nparts == 0) {
    rep_.flips_skipped += static_cast<std::uint64_t>(burst.bits);
    return;
  }
  for (int i = 0; i < burst.bits; ++i) {
    const PartId p = static_cast<PartId>(
        pcu::faults::memFlipKey(seed, 0, -1, pcu::faults::ioPathHash("part"),
                                i) %
        static_cast<std::uint64_t>(nparts));
    const int rank = pm_.network().partMap().rankOf(p);
    if (flipOne(burst.target, seed, rank, p, i))
      ++rep_.flips_injected;
    else
      ++rep_.flips_skipped;
  }
  if (pcu::trace::enabled())
    pcu::trace::counter("integrity:flips",
                        static_cast<std::int64_t>(burst.bits));
}

bool Armor::flipOne(pcu::faults::MemTarget target, std::uint64_t seed,
                    int rank, PartId p, int flip_index) {
  using MT = pcu::faults::MemTarget;
  Part& part = pm_.part(p);
  core::Mesh& mesh = part.mesh();
  auto key = [&](const std::string& what) {
    return pcu::faults::memFlipKey(seed, rank, p,
                                   pcu::faults::ioPathHash(what), flip_index);
  };
  auto meshSections = [&]() {
    std::vector<std::string> names;
    for (const auto& s : core::integrity::MeshAccess::sections(mesh))
      names.push_back(s.name);
    return names;
  };
  auto flipInSection = [&](const std::vector<std::string>& names,
                           const char* pick) {
    if (names.empty()) return false;
    const std::string& name = names[key(pick) % names.size()];
    auto span = core::integrity::MeshAccess::mutableSection(mesh, name);
    if (span.empty()) return false;
    const std::uint64_t bit = key(name) % (span.size() * 8);
    span[bit / 8] ^= std::byte{1} << static_cast<int>(bit % 8);
    return true;
  };
  auto eligibleTags = [&]() {
    auto tags = mesh.tags().list();
    std::sort(tags.begin(), tags.end(), [](const auto* a, const auto* b) {
      return a->name() < b->name();
    });
    std::vector<core::Mesh::Tag> out;
    for (auto* t : tags) {
      const auto items = t->items();
      if (items.empty()) continue;
      if (t->valueBytes(items.front()).empty()) continue;  // non-POD payload
      out.push_back(t);
    }
    return out;
  };
  auto flipTag = [&]() {
    const auto tags = eligibleTags();
    if (tags.empty()) return false;
    auto* tag = tags[key("tag") % tags.size()];
    auto items = tag->items();
    std::sort(items.begin(), items.end(),
              [](Ent a, Ent b) { return a.packed() < b.packed(); });
    const Ent item = items[key("tag:" + tag->name()) % items.size()];
    auto span = tag->valueBytes(item);
    if (span.empty()) return false;
    const std::uint64_t bit =
        key("tagbit:" + tag->name()) % (span.size() * 8);
    span[bit / 8] ^= std::byte{1} << static_cast<int>(bit % 8);
    return true;
  };
  auto flipRemotes = [&]() {
    const std::vector<FieldFlip> fields = remoteFields(
        part.mesh(), part.remotes_, part.ghost_source_, part.ghosted_on_);
    if (fields.empty()) return false;
    std::uint64_t total = 0;
    for (const FieldFlip& f : fields) total += static_cast<std::uint64_t>(f.bits);
    std::uint64_t bit = key("remotes") % total;
    for (const FieldFlip& f : fields) {
      if (bit < static_cast<std::uint64_t>(f.bits)) {
        f.flip(static_cast<int>(bit));
        return true;
      }
      bit -= static_cast<std::uint64_t>(f.bits);
    }
    return false;
  };
  auto tryFamily = [&](MT f) {
    switch (f) {
      case MT::kPool:
        return flipInSection(meshSections(), "pool");
      case MT::kTag:
        return flipTag();
      case MT::kRemotes:
        return flipRemotes();
      case MT::kAny:
        break;
    }
    return false;
  };
  if (target != MT::kAny) return tryFamily(target);
  std::vector<MT> fams;
  if (!meshSections().empty()) fams.push_back(MT::kPool);
  if (!eligibleTags().empty()) fams.push_back(MT::kTag);
  if (!remoteFields(part.mesh(), part.remotes_, part.ghost_source_,
                    part.ghosted_on_)
           .empty())
    fams.push_back(MT::kRemotes);
  if (fams.empty()) return false;
  return tryFamily(fams[key("family") % fams.size()]);
}

/// --- report -----------------------------------------------------------------

IntegrityReport Armor::report() const {
  IntegrityReport out = rep_;
  for (const auto& led : ledgers_) {
    out.bytes_hashed += led.bytesHashed();
    out.sections_rehashed += led.sectionsRehashed();
  }
  auto dedupe = [](std::vector<PartId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  dedupe(out.parts_repaired);
  dedupe(out.parts_unrepaired);
  return out;
}

const core::integrity::Ledger& Armor::ledger(PartId p) const {
  return ledgers_.at(static_cast<std::size_t>(p));
}

}  // namespace integrity
}  // namespace dist
