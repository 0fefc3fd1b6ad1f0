/// \file test_integrity.cpp
/// \brief Tests for the silent-corruption armor: deterministic memory-fault
/// injection, incremental part-state checksum ledgers, and online
/// audit-and-repair at transactional commit points.
///
/// Contract under test (ISSUE: silent-corruption armor): one flipped bit in
/// live part state — an entity pool, the coordinates, a tag payload, a
/// remote/ghost record, a cached CSR array — never propagates silently.
/// The ledger localizes the damage to an exact (part, section, byte range);
/// the armor repairs through an escalation ladder (CSR rebuild -> buddy
/// journal -> checkpoint) or raises a structured kIntegrity naming the
/// damage; and a seeded `memflip` matrix replays bit-identically: every
/// injected flip is repaired to a fingerprint-identical mesh or reported
/// with exact localization. Zero silent digest divergence, ever.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adapt/sizefield.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/integrity.hpp"
#include "core/mesh.hpp"
#include "core/meshio.hpp"
#include "dist/checkpoint.hpp"
#include "dist/failover.hpp"
#include "dist/integrity.hpp"
#include "dist/padapt.hpp"
#include "dist/partedmesh.hpp"
#include "dist/partio.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "part/partition.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"
#include "pcu/stats.hpp"
#include "pcu/trace.hpp"
#include "solver/poisson.hpp"
#include "svc/patrol.hpp"
#include "svc/scheduler.hpp"

namespace {

using core::Ent;
using dist::PartId;
using pcu::Error;
using pcu::ErrorCode;
namespace faults = pcu::faults;
namespace failover = dist::failover;
namespace ci = core::integrity;
namespace di = dist::integrity;

/// Installs a plan for the scope of one test body; always clears on exit so
/// a failing assertion cannot leak fault state into later tests.
struct PlanGuard {
  explicit PlanGuard(const faults::FaultPlan& p) { faults::setPlan(p); }
  ~PlanGuard() { faults::clearPlan(); }
  PlanGuard(const PlanGuard&) = delete;
  PlanGuard& operator=(const PlanGuard&) = delete;
};

std::unique_ptr<dist::PartedMesh> makeMesh(const meshgen::Generated& gen,
                                           int nparts) {
  const auto assign = part::partition(*gen.mesh, nparts, part::Method::RCB);
  return dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
}

dist::MigrationPlan randomPlan(dist::PartedMesh& pm, common::Rng& rng,
                               double move_prob) {
  dist::MigrationPlan plan(static_cast<std::size_t>(pm.parts()));
  for (PartId p = 0; p < pm.parts(); ++p)
    for (Ent e : pm.part(p).elements()) {
      if (rng.uniform() >= move_prob) continue;
      const auto dest = static_cast<PartId>(
          rng.below(static_cast<std::uint64_t>(pm.parts())));
      if (dest != p) plan[static_cast<std::size_t>(p)][e] = dest;
    }
  return plan;
}

/// Geometric digest of one element: hash of its sorted vertex coordinates.
/// Stable across handle rebuilds and part moves, so the multiset over the
/// whole mesh is the "nothing lost, nothing mutated" witness.
std::uint64_t elementDigest(const core::Mesh& m, Ent e) {
  std::vector<std::array<double, 3>> pts;
  for (Ent v : m.verts(e)) {
    const auto x = m.point(v);
    pts.push_back({x.x, x.y, x.z});
  }
  std::sort(pts.begin(), pts.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& pt : pts)
    for (double d : pt) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      h = (h ^ bits) * 0x100000001b3ull;
    }
  return h;
}

std::multiset<std::uint64_t> elementDigests(const dist::PartedMesh& pm) {
  std::multiset<std::uint64_t> out;
  for (PartId p = 0; p < pm.parts(); ++p) {
    const core::Mesh& m = pm.part(p).mesh();
    for (Ent e : pm.part(p).elements()) out.insert(elementDigest(m, e));
  }
  return out;
}

/// Flip one byte of a named mesh section WITHOUT bumping any version
/// counter — exactly what a particle strike looks like to the ledger.
void corruptSection(core::Mesh& m, const std::string& name, std::size_t at) {
  auto span = ci::MeshAccess::mutableSection(m, name);
  ASSERT_FALSE(span.empty()) << "no section named " << name;
  ASSERT_LT(at, span.size());
  span[at] ^= std::byte{0x40};
}

/// First sealed section of part p whose name starts with `prefix`.
std::string sectionWithPrefix(di::Armor& armor, PartId p,
                              const std::string& prefix) {
  for (const auto& s : armor.ledger(p).sectionNames())
    if (s.rfind(prefix, 0) == 0) return s;
  return {};
}

/// Give every part's mesh a vertex tag with values, so the `tag` flip
/// family has eligible bytes.
void primeTags(dist::PartedMesh& pm) {
  for (PartId p = 0; p < pm.parts(); ++p) {
    core::Mesh& m = pm.part(p).mesh();
    auto tag = m.tags().create<double>("weight", 1);
    for (Ent v : m.entities(0))
      m.tags().setScalar<double>(tag, v, 1.0 + static_cast<double>(p));
  }
}

/// --- PUMI_FAULTS memflip grammar (strict parse) --------------------------

TEST(MemFaultSpec, ParsesMemflipToken) {
  const auto p = faults::parsePlan("seed=9,memflip=3@2");
  EXPECT_EQ(p.memflip.bits, 3);
  EXPECT_EQ(p.memflip.phase, 2);
  EXPECT_EQ(p.memflip.target, faults::MemTarget::kAny);
  EXPECT_TRUE(p.memflip.scheduled());
  EXPECT_TRUE(p.memInjects());
  // Memory faults arm neither message framing nor the storage shim.
  EXPECT_FALSE(p.injects());
  EXPECT_FALSE(p.ioInjects());
}

TEST(MemFaultSpec, ParsesEveryTargetFamily) {
  const std::pair<const char*, faults::MemTarget> targets[] = {
      {"pool", faults::MemTarget::kPool},
      {"tag", faults::MemTarget::kTag},
      {"remotes", faults::MemTarget::kRemotes},
  };
  for (const auto& [name, target] : targets) {
    const auto p =
        faults::parsePlan(std::string("memflip=1@0:") + name);
    EXPECT_EQ(p.memflip.target, target) << name;
    EXPECT_STREQ(faults::memTargetName(target), name);
  }
}

TEST(MemFaultSpec, MalformedTokensAreRejectedByName) {
  for (const char* bad :
       {"memflip=", "memflip=3", "memflip=@2", "memflip=3@", "memflip=0@1",
        "memflip=x@2", "memflip=3@y", "memflip=3@-1", "memflip=-1@2",
        "memflip=3@2:disk", "memflip=3@2:", "memflip=3@2:POOL",
        "memflip=1@0:csr"}) {
    try {
      faults::parsePlan(bad);
      FAIL() << "accepted malformed PUMI_FAULTS token: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kValidation) << bad;
      EXPECT_NE(std::string(e.detail()).find("memflip"), std::string::npos)
          << "error must name the bad token: " << bad << " -> " << e.what();
    }
  }
}

TEST(MemFaultSpec, DuplicateMemflipKeysAreRejected) {
  try {
    faults::parsePlan("memflip=1@0,memflip=2@1");
    FAIL() << "accepted a duplicate memflip key";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(std::string(e.detail()).find("memflip"), std::string::npos);
  }
}

TEST(MemFaultSpec, FiresConsumeOnceAtItsBoundary) {
  PlanGuard g(faults::parsePlan("memflip=4@1:tag"));
  EXPECT_TRUE(faults::memEnabled());
  EXPECT_EQ(faults::fireMemFlip(0).bits, 0) << "wrong boundary must not fire";
  const auto burst = faults::fireMemFlip(1);
  EXPECT_EQ(burst.bits, 4);
  EXPECT_EQ(burst.target, faults::MemTarget::kTag);
  EXPECT_EQ(faults::fireMemFlip(1).bits, 0) << "a burst fires exactly once";
}

TEST(MemFaultSpec, FlipKeyIsPureInItsInputs) {
  const std::uint64_t h = faults::ioPathHash("pool");
  const auto k = faults::memFlipKey(7, 0, 2, h, 0);
  EXPECT_EQ(faults::memFlipKey(7, 0, 2, h, 0), k) << "must replay";
  std::set<std::uint64_t> keys;
  for (int part = 0; part < 4; ++part)
    for (int flip = 0; flip < 4; ++flip)
      keys.insert(faults::memFlipKey(7, 0, part, h, flip));
  EXPECT_EQ(keys.size(), 16u) << "distinct inputs must spread";
  EXPECT_NE(faults::memFlipKey(8, 0, 2, h, 0), k) << "seed must matter";
}

/// --- CRC-32C (the in-memory ledger checksum) -----------------------------

TEST(Crc32c, MatchesKnownAnswersAndChains) {
  const char* s = "123456789";
  const auto* b = reinterpret_cast<const std::byte*>(s);
  EXPECT_EQ(common::crc32c(b, 9), 0xE3069283u) << "CRC-32C Castagnoli KAT";
  EXPECT_EQ(common::crc32(b, 9), 0xCBF43926u) << "CRC-32 IEEE KAT";
  // Seeded calls chain: crc32c(b, crc32c(a)) == crc32c(a||b). This is what
  // lets the ledger hash a section in blocks.
  for (std::size_t cut = 0; cut <= 9; ++cut)
    EXPECT_EQ(common::crc32c(b + cut, 9 - cut, common::crc32c(b, cut)),
              0xE3069283u)
        << "chain split at " << cut;
  EXPECT_EQ(common::crc32c(b, 0), 0u);
}

/// --- the sectioned ledger (core::integrity) ------------------------------

TEST(Ledger, SealsMeshSectionsAndAuditsClean) {
  auto gen = meshgen::boxTris(4, 4);
  ci::Ledger led;
  EXPECT_FALSE(led.sealed());
  led.seal(*gen.mesh);
  EXPECT_TRUE(led.sealed());
  const auto names = led.sectionNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "coords"), names.end());
  EXPECT_TRUE(std::any_of(names.begin(), names.end(), [](const auto& n) {
    return n.rfind("pool:", 0) == 0;
  }));
  EXPECT_GT(led.coveredBytes(), 0u);
  std::vector<ci::Mismatch> ms;
  led.audit(*gen.mesh, ms);
  EXPECT_TRUE(ms.empty());
}

TEST(Ledger, FlippedByteIsLocalizedToItsBlock) {
  auto gen = meshgen::boxTris(5, 5);
  ci::Ledger led;
  led.seal(*gen.mesh);
  const auto span = ci::MeshAccess::mutableSection(*gen.mesh, "coords");
  ASSERT_GT(span.size(), ci::kBlockBytes) << "want a multi-block section";
  const std::size_t at = ci::kBlockBytes + 17;  // inside the second block
  span[at] ^= std::byte{0x01};

  std::vector<ci::Mismatch> ms;
  led.audit(*gen.mesh, ms);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].section, "coords");
  EXPECT_LE(ms[0].first_byte, at);
  EXPECT_GE(ms[0].last_byte, at);
  EXPECT_LT(ms[0].last_byte - ms[0].first_byte, ci::kBlockBytes)
      << "localization must be block-granular, not whole-section";

  span[at] ^= std::byte{0x01};  // heal the flip: the seal is valid again
  ms.clear();
  led.audit(*gen.mesh, ms);
  EXPECT_TRUE(ms.empty());
}

TEST(Ledger, LegitimateWritesAreVersionGatedNotCorruption) {
  auto gen = meshgen::boxTris(4, 4);
  core::Mesh& m = *gen.mesh;
  ci::Ledger led;
  led.seal(m);
  // A legitimate mutation bumps dataVersion: the audit must skip the
  // section (changed versions = legal write), never cry corruption.
  const Ent v = *m.entities(0).begin();
  auto x = m.point(v);
  x.x += 0.25;
  m.setPoint(v, x);
  std::vector<ci::Mismatch> ms;
  led.audit(m, ms);
  EXPECT_TRUE(ms.empty()) << "a setPoint is not corruption";
  led.seal(m);  // re-keys coords at the new version
  ms.clear();
  led.audit(m, ms);
  EXPECT_TRUE(ms.empty());
}

TEST(Ledger, TagPayloadCorruptionIsDetectedAndWritesAreNot) {
  auto gen = meshgen::boxTris(4, 4);
  core::Mesh& m = *gen.mesh;
  auto tag = m.tags().create<double>("w", 1);
  std::vector<Ent> verts;
  for (Ent v : m.entities(0)) verts.push_back(v);
  for (Ent v : verts) m.tags().setScalar<double>(tag, v, 3.5);

  ci::Ledger led;
  led.seal(m);
  const auto names = led.sectionNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "tag:w"), names.end());

  // Corrupt one payload byte through the raw view (no version bump).
  auto bytes = tag->valueBytes(verts.front());
  ASSERT_FALSE(bytes.empty());
  bytes[2] ^= std::byte{0x10};
  std::vector<ci::Mismatch> ms;
  led.audit(m, ms);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].section, "tag:w");
  bytes[2] ^= std::byte{0x10};

  // A legitimate set() bumps the tag version: gated, not corruption.
  m.tags().setScalar<double>(tag, verts.front(), 9.0);
  ms.clear();
  led.audit(m, ms);
  EXPECT_TRUE(ms.empty());

  // A destroyed tag vanishes from the next seal without a mismatch.
  m.tags().destroy(tag);
  led.seal(m);
  ms.clear();
  led.audit(m, ms);
  EXPECT_TRUE(ms.empty());
  const auto after = led.sectionNames();
  EXPECT_EQ(std::find(after.begin(), after.end(), "tag:w"), after.end());
}

/// --- the armor's repair ladder (dist::integrity) -------------------------

TEST(Armor, PoolCorruptionRepairsFromTheBuddyJournal) {
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  pm->setIntegrity(true);
  failover::BuddyJournal journal;
  di::Armor& armor = pm->armor();
  armor.setJournal(&journal);
  armor.sealAndMaybeInject();  // seals AND records the matching replica
  EXPECT_GT(journal.bytesStreamed(), 0u);
  const std::uint64_t fp = pm->fingerprint();
  const auto digests = elementDigests(*pm);

  const std::string sec = sectionWithPrefix(armor, 2, "pool:");
  ASSERT_FALSE(sec.empty());
  corruptSection(pm->part(2).mesh(), sec, 0);
  EXPECT_NO_THROW(armor.auditAndRepair("test"));
  const auto rep = armor.report();
  ASSERT_GE(rep.detected.size(), 1u);
  EXPECT_EQ(rep.detected[0].part, 2);
  EXPECT_EQ(rep.detected[0].repair_tier, 2) << "journal is tier 2";
  EXPECT_EQ(rep.parts_repaired, std::vector<PartId>{2});
  EXPECT_EQ(pm->fingerprint(), fp)
      << "repair must reproduce the sealed state exactly";
  EXPECT_EQ(elementDigests(*pm), digests);
  EXPECT_NO_THROW(pm->verify());
}

TEST(Armor, FallsBackToTheCheckpointWhenNoJournalIsSet) {
  namespace fs = std::filesystem;
  const fs::path dirp =
      fs::temp_directory_path() / "pumi_test_integrity" / "tier3";
  fs::remove_all(dirp);

  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  pm->setIntegrity(true);
  dist::checkpoint(*pm, dirp.string());
  di::Armor& armor = pm->armor();
  armor.setCheckpointDir(dirp.string());
  armor.sealAndMaybeInject();
  const std::uint64_t fp = pm->fingerprint();

  const std::string sec = sectionWithPrefix(armor, 0, "pool:");
  ASSERT_FALSE(sec.empty());
  corruptSection(pm->part(0).mesh(), sec, 4);
  EXPECT_NO_THROW(armor.auditAndRepair("test"));
  const auto rep = armor.report();
  ASSERT_GE(rep.detected.size(), 1u);
  EXPECT_EQ(rep.detected[0].repair_tier, 3) << "checkpoint is tier 3";
  EXPECT_EQ(pm->fingerprint(), fp);
  EXPECT_NO_THROW(pm->verify());
  fs::remove_all(dirp);
}

TEST(Armor, ExhaustedLadderThrowsKIntegrityWithExactLocalization) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 4);
  pm->setIntegrity(true);
  di::Armor& armor = pm->armor();  // no journal, no checkpoint: bare
  armor.sealAndMaybeInject();

  const std::string sec = sectionWithPrefix(armor, 3, "pool:");
  ASSERT_FALSE(sec.empty());
  corruptSection(pm->part(3).mesh(), sec, 2);
  try {
    armor.auditAndRepair("op");
    FAIL() << "unrepairable corruption must raise kIntegrity";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIntegrity);
    const std::string d(e.what());
    EXPECT_NE(d.find("part 3"), std::string::npos) << d;
    EXPECT_NE(d.find(sec), std::string::npos)
        << "the error must name the corrupt section: " << d;
    EXPECT_NE(d.find("bytes ["), std::string::npos)
        << "the error must carry the byte range: " << d;
  }
  const auto rep = armor.report();
  EXPECT_EQ(rep.parts_unrepaired, std::vector<PartId>{3});
  EXPECT_GE(rep.mismatches, 1u);
}

/// --- deterministic injection, per target family --------------------------

class InjectorTarget : public ::testing::TestWithParam<const char*> {};

TEST_P(InjectorTarget, SeededBurstIsPlantedDetectedAndRepaired) {
  const std::string target = GetParam();
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  primeTags(*pm);
  pm->setIntegrity(true);
  failover::BuddyJournal journal;
  di::Armor& armor = pm->armor();
  armor.setJournal(&journal);

  PlanGuard g(faults::parsePlan("seed=31,memflip=3@0:" + target));
  armor.sealAndMaybeInject();  // boundary 0: the burst strikes sealed state

  // NOTE: nothing may serialize (fingerprint, checkpoint, journal) between
  // the strike and the audit — a corrupted pool handle would trip the
  // serializer. The armor's wiring guarantees exactly that: audit first.
  EXPECT_NO_THROW(armor.auditAndRepair("entry"));
  const auto rep = armor.report();
  EXPECT_EQ(rep.flips_injected + rep.flips_skipped, 3u)
      << "every scheduled bit is accounted: planted or skipped, never lost";
  if (rep.flips_injected > 0) {
    EXPECT_GE(rep.mismatches, 1u) << "a planted flip must be detected";
    EXPECT_FALSE(rep.parts_repaired.empty());
    for (const auto& c : rep.detected)
      EXPECT_GT(c.repair_tier, 0) << c.section << " left unrepaired";
  }
  EXPECT_TRUE(rep.parts_unrepaired.empty());
  EXPECT_NO_THROW(pm->verify());
  // Post-repair audit is clean: nothing silent left behind.
  EXPECT_NO_THROW(armor.auditAndRepair("after"));
  EXPECT_EQ(armor.report().mismatches, rep.mismatches);
}

INSTANTIATE_TEST_SUITE_P(Targets, InjectorTarget,
                         ::testing::Values("pool", "tag", "remotes"),
                         [](const auto& info) { return info.param; });

TEST(Armor, ReportIsDeterministicAcrossReruns) {
  // Same seed, same mesh, same boundary sequence -> bit-identical replay:
  // the detected list (parts, sections, byte ranges, tiers) must match.
  auto runOnce = [] {
    auto gen = meshgen::boxTris(5, 5);
    auto pm = makeMesh(gen, 4);
    primeTags(*pm);
    pm->setIntegrity(true);
    failover::BuddyJournal journal;
    di::Armor& armor = pm->armor();
    armor.setJournal(&journal);
    PlanGuard g(faults::parsePlan("seed=77,memflip=4@0"));
    armor.sealAndMaybeInject();
    armor.auditAndRepair("entry");
    return armor.report();
  };
  const auto a = runOnce();
  const auto b = runOnce();
  EXPECT_EQ(a.flips_injected, b.flips_injected);
  EXPECT_EQ(a.flips_skipped, b.flips_skipped);
  EXPECT_EQ(a.mismatches, b.mismatches);
  ASSERT_EQ(a.detected.size(), b.detected.size());
  for (std::size_t i = 0; i < a.detected.size(); ++i)
    EXPECT_TRUE(a.detected[i] == b.detected[i])
        << "replay diverged at detection " << i << ": " <<
        a.detected[i].section << " vs " << b.detected[i].section;
  EXPECT_EQ(a.parts_repaired, b.parts_repaired);
  EXPECT_EQ(a.parts_unrepaired, b.parts_unrepaired);
}

/// --- armor wired into the transactional operations -----------------------

TEST(Armor, OperationEntryAuditRepairsAFlipFromThePreviousBoundary) {
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  pm->setIntegrity(true);
  failover::BuddyJournal journal;
  pm->armor().setJournal(&journal);
  const auto digests = elementDigests(*pm);

  PlanGuard g(faults::parsePlan("seed=13,memflip=2@0"));
  pm->armor().sealAndMaybeInject();  // boundary 0: flip strikes idle state

  // The next operation's entry audit repairs the strike before the op
  // mutates anything; the op then commits clean.
  common::Rng rng(5);
  EXPECT_NO_THROW(pm->migrate(randomPlan(*pm, rng, 0.2)));
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(elementDigests(*pm), digests) << "zero elements lost or mutated";
  const auto rep = pm->armor().report();
  EXPECT_EQ(rep.flips_injected + rep.flips_skipped, 2u);
  if (rep.flips_injected > 0) {
    EXPECT_GE(rep.mismatches, 1u);
  }
  EXPECT_TRUE(rep.parts_unrepaired.empty());
}

/// --- refine, coarsen and unghost are commit points -----------------------

/// The CRC of a fresh serialization of part p's mesh.
std::uint32_t freshMeshCrc(const dist::PartedMesh& pm, PartId p) {
  const auto bytes = core::meshToBytes(pm.part(p).mesh());
  return common::crc32(bytes.data(), bytes.size());
}

TEST(ArmorCommitPoints, UnsealedAdaptThenBalanceKeepsEveryElement) {
  // No caller seal anywhere: refineParted and coarsenParted audit on entry
  // and seal on exit, so the journal replica follows their edits and the
  // balancer's round-entry audits never read them as corruption (before,
  // such a refine was "repaired" from a stale replica and lost elements).
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = makeMesh(gen, 4);
  pm->setIntegrity(true);
  failover::BuddyJournal journal;
  di::Armor& armor = pm->armor();
  armor.setJournal(&journal);
  armor.sealAndMaybeInject();
  const adapt::ShockFrontSize size({0.3, 0.5, 0.5}, {1, 0, 0}, 0.1, 0.12,
                                   0.3);

  std::uint64_t b = armor.boundaryIndex();
  const auto ref = dist::refineParted(*pm, size);
  EXPECT_GT(ref.splits, 0u);
  EXPECT_EQ(armor.boundaryIndex(), b + 1) << "refine seals on exit";
  for (PartId p = 0; p < pm->parts(); ++p)
    EXPECT_EQ(journal.find(p)->mesh_crc, freshMeshCrc(*pm, p))
        << "the replica follows the refine, part " << p;

  b = armor.boundaryIndex();
  const auto coa = dist::coarsenParted(*pm, size);
  EXPECT_GT(coa.collapses, 0u);
  EXPECT_EQ(armor.boundaryIndex(), b + 1) << "coarsen seals on exit";

  const std::size_t elems = pm->globalCount(3);
  parma::balance(*pm, "Rgn");
  EXPECT_EQ(pm->globalCount(3), elems);
  const auto rep = armor.report();
  EXPECT_EQ(rep.mismatches, 0u);
  EXPECT_TRUE(rep.parts_repaired.empty());
  EXPECT_NO_THROW(pm->verify());
}

TEST(ArmorCommitPoints, UnghostThenAuditDoesNotThrow) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 4);
  pm->setIntegrity(true);
  failover::BuddyJournal journal;
  di::Armor& armor = pm->armor();
  armor.setJournal(&journal);
  pm->ghostLayers(1);
  const std::uint64_t b = armor.boundaryIndex();
  pm->unghost();
  EXPECT_EQ(armor.boundaryIndex(), b + 1) << "unghost seals on exit";
  EXPECT_NO_THROW(armor.auditAndRepair("after-unghost"));
  EXPECT_EQ(armor.report().mismatches, 0u);
  EXPECT_NO_THROW(pm->verify());
}

/// --- the version gates never leave a stale replica or ledger entry -------

/// Every journal replica must equal a fresh full serialization of its part,
/// whatever the journal's stamp gate skipped.
void expectReplicasFresh(const dist::PartedMesh& pm,
                         const failover::BuddyJournal& journal) {
  std::vector<dist::partio::OrdinalMap> ords;
  for (PartId p = 0; p < pm.parts(); ++p)
    ords.push_back(dist::partio::buildOrdinals(pm.part(p).mesh()));
  for (PartId p = 0; p < pm.parts(); ++p) {
    const auto meta = dist::partio::buildMeta(
        pm.part(p), ords[static_cast<std::size_t>(p)], ords);
    const auto* snap = journal.find(p);
    ASSERT_NE(snap, nullptr) << "part " << p;
    EXPECT_EQ(snap->mesh_crc, freshMeshCrc(pm, p)) << "part " << p;
    EXPECT_EQ(snap->meta_crc, common::crc32(meta.data(), meta.size()))
        << "part " << p;
  }
}

/// Every section the armor sealed (mesh and external) must hash what a
/// fresh ledger over the current state hashes, whatever the seal's version
/// gates skipped. Holds right after a seal.
void expectLedgersFresh(const dist::PartedMesh& pm, di::Armor& armor) {
  for (PartId p = 0; p < pm.parts(); ++p) {
    const dist::Part& part = pm.part(p);
    ci::Ledger fresh;
    fresh.seal(part.mesh());
    fresh.sealExternal("remotes", 0, di::remotesStream(part));
    fresh.sealExternal("ghost-src", 0, di::ghostSourceStream(part));
    fresh.sealExternal("ghost-on", 0, di::ghostedOnStream(part));
    const ci::Ledger& sealed = armor.ledger(p);
    ASSERT_EQ(sealed.sectionNames(), fresh.sectionNames()) << "part " << p;
    for (const auto& name : fresh.sectionNames())
      EXPECT_EQ(sealed.sectionCrc(name), fresh.sectionCrc(name))
          << "part " << p << " section " << name;
  }
}

void expectSealedStateFresh(const dist::PartedMesh& pm, di::Armor& armor,
                            const failover::BuddyJournal& journal,
                            const std::string& after) {
  SCOPED_TRACE("after " + after);
  expectReplicasFresh(pm, journal);
  expectLedgersFresh(pm, armor);
}

TEST(VersionGates, NeverLeaveAStaleReplicaOrLedgerEntry) {
  // A seeded armored workflow: distribute -> refine -> coarsen -> (a
  // rolled-back migrate) -> balance -> ghost -> sync -> unghost -> solve.
  // Every operation ends in a seal; the sealed state is checked after each.
  // A memflip planted by the coarsen's exit seal (boundary 2) is repaired
  // from the journal by the audit ahead of the next plan computation (the
  // client contract the memflip matrix follows), and the migrate is then
  // forced to roll back, so both the repair and the rollback paths must
  // leave the gates' stamps and versions consistent.
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = makeMesh(gen, 4);
  pm->setIntegrity(true);
  failover::BuddyJournal journal;
  di::Armor& armor = pm->armor();
  armor.setJournal(&journal);
  const adapt::ShockFrontSize size({0.4, 0.5, 0.5}, {1, 0, 0}, 0.1, 0.12,
                                   0.3);
  {
    PlanGuard g(faults::parsePlan("seed=23,memflip=1@2:pool"));
    armor.sealAndMaybeInject();  // boundary 0
    expectSealedStateFresh(*pm, armor, journal, "arming");
    dist::refineParted(*pm, size);  // boundary 1
    expectSealedStateFresh(*pm, armor, journal, "refine");
    dist::coarsenParted(*pm, size);  // boundary 2: the flip strikes
  }
  ASSERT_EQ(armor.report().flips_injected, 1u);
  const std::size_t elems = pm->globalCount(3);

  armor.auditAndRepair("plan");
  const auto repaired = armor.report();
  ASSERT_EQ(repaired.detected.size(), 1u);
  EXPECT_EQ(repaired.detected[0].repair_tier, 2) << "journal is tier 2";
  EXPECT_EQ(pm->globalCount(3), elems);
  expectSealedStateFresh(*pm, armor, journal, "repair");

  common::Rng rng(23);
  const auto plan = randomPlan(*pm, rng, 0.2);
  {
    faults::FaultPlan lossy;
    lossy.seed = 5;
    lossy.drop = 1.0;
    PlanGuard g(lossy);
    EXPECT_THROW(pm->migrate(plan), Error) << "every message is dropped";
  }
  EXPECT_EQ(armor.report().mismatches, repaired.mismatches);
  EXPECT_EQ(pm->globalCount(3), elems);
  {
    // An aborted operation does not seal: the ledgers keep the pre-op seal
    // (the next audit sees the rollback's version bumps and the next seal
    // re-keys), but the journal must still hold the rolled-back state.
    SCOPED_TRACE("after rollback");
    expectReplicasFresh(*pm, journal);
  }

  parma::BalanceOptions bopts;
  bopts.max_rounds = 2;
  parma::balance(*pm, "Rgn", bopts);
  expectSealedStateFresh(*pm, armor, journal, "balance");
  pm->ghostLayers(1);
  expectSealedStateFresh(*pm, armor, journal, "ghostLayers");
  pm->syncGhostTags();
  expectSealedStateFresh(*pm, armor, journal, "syncGhostTags");
  pm->unghost();
  expectSealedStateFresh(*pm, armor, journal, "unghost");
  const auto solved = solver::solvePoisson(
      *pm, [](const common::Vec3&) { return 1.0; },
      [](const common::Vec3&) { return 0.0; },
      {.max_iterations = 500, .tolerance = 1e-8});
  EXPECT_TRUE(solved.converged);
  armor.sealAndMaybeInject();  // the solve writes "u" without a seal
  expectSealedStateFresh(*pm, armor, journal, "solve");

  const auto rep = armor.report();
  EXPECT_EQ(rep.mismatches, repaired.mismatches) << "no new mismatch";
  EXPECT_TRUE(rep.parts_unrepaired.empty());
  EXPECT_EQ(pm->globalCount(3), elems);
  EXPECT_NO_THROW(pm->verify());
}

/// --- the memflip matrix --------------------------------------------------
///
/// The tentpole's proof obligation: a 20-seed x {2D,3D} matrix of seeded
/// memory-fault campaigns over real transactional workloads (migrations +
/// balancing). Each case cycles the target family and boundary phase from
/// its seed. Every injected flip must be repaired to a digest-identical
/// mesh — the armor refreshes its journal replica at each seal, so the
/// ladder never meets a stale snapshot — and nothing may diverge silently.

struct MatrixCase {
  std::uint64_t seed;
  bool three_d;
};

class MemflipMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(MemflipMatrix, EveryInjectedFlipIsRepairedOrPreciselyReported) {
  const auto [seed, three_d] = GetParam();
  // The fourth slot is an untargeted burst: the armor picks the family.
  static const char* kTargets[] = {":pool", ":tag", ":remotes", ""};
  const std::string target = kTargets[seed % 4];
  const int phase = static_cast<int>(seed % 3);  // boundaries 0..2 all exist
  const int bits = 1 + static_cast<int>(seed % 4);

  auto gen = three_d ? meshgen::boxTets(2, 2, 2) : meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 4);
  primeTags(*pm);
  pm->setIntegrity(true);
  const auto pristine = elementDigests(*pm);

  failover::BuddyJournal journal;
  di::Armor& armor = pm->armor();
  armor.setJournal(&journal);

  PlanGuard g(faults::parsePlan(
      "seed=" + std::to_string(seed) + ",memflip=" + std::to_string(bits) +
      "@" + std::to_string(phase) + target));
  armor.sealAndMaybeInject();  // boundary 0

  common::Rng rng(seed);
  // Two migrations (boundaries 1, 2) then a balance pass (one boundary per
  // round): every scheduled phase fires, and every fired flip crosses a
  // later audit before anything reads part state. The explicit audit ahead
  // of each plan computation is the client contract the service and
  // balancer layers follow too: a flip planted at the previous commit
  // point must be repaired before handles are harvested from the mesh —
  // plans computed from struck state would be stale after the repair
  // rebuilds the part.
  armor.auditAndRepair("matrix:plan");
  pm->migrate(randomPlan(*pm, rng, 0.25));
  armor.auditAndRepair("matrix:plan");
  pm->migrate(randomPlan(*pm, rng, 0.25));
  parma::balance(*pm, three_d ? "Rgn" : "Face");  // audits each round
  armor.auditAndRepair("matrix:final");

  const auto rep = armor.report();
  EXPECT_EQ(rep.flips_injected + rep.flips_skipped,
            static_cast<std::uint64_t>(bits))
      << "the scheduled burst fired exactly once and is fully accounted";
  if (rep.flips_injected > 0) {
    EXPECT_GE(rep.mismatches, 1u)
        << "a planted flip evaded every audit: silent corruption";
  }
  for (const auto& c : rep.detected) {
    EXPECT_GT(c.repair_tier, 0)
        << "unrepaired detection survived without kIntegrity: part "
        << c.part << " section " << c.section;
    EXPECT_GE(c.last_byte, c.first_byte);
    EXPECT_FALSE(c.section.empty());
  }
  EXPECT_TRUE(rep.parts_unrepaired.empty());
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(elementDigests(*pm), pristine)
      << "zero silent digest divergence across the whole campaign";
}

INSTANTIATE_TEST_SUITE_P(
    Campaign, MemflipMatrix, ::testing::ValuesIn([] {
      std::vector<MatrixCase> cases;
      for (std::uint64_t s = 1; s <= 20; ++s)
        for (bool three_d : {false, true}) cases.push_back({s, three_d});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string("seed") + std::to_string(info.param.seed) +
             (info.param.three_d ? "_tets" : "_tris");
    });

/// --- trace counters ------------------------------------------------------

TEST(IntegrityTrace, CountersReachTheTraceReport) {
  pcu::trace::clear();
  pcu::trace::setEnabled(true);
  {
    auto gen = meshgen::boxTris(4, 4);
    auto pm = makeMesh(gen, 4);
    pm->setIntegrity(true);
    failover::BuddyJournal journal;
    di::Armor& armor = pm->armor();
    armor.setJournal(&journal);
    armor.sealAndMaybeInject();
    const std::string sec = sectionWithPrefix(armor, 1, "pool:");
    ASSERT_FALSE(sec.empty());
    corruptSection(pm->part(1).mesh(), sec, 0);
    armor.auditAndRepair("trace-test");
  }
  const auto report = pcu::buildTraceReport();
  pcu::trace::setEnabled(false);
  pcu::trace::clear();
  std::set<std::string> names;
  for (const auto& c : report.counters) names.insert(c.name);
  EXPECT_TRUE(names.count("integrity:seals"));
  EXPECT_TRUE(names.count("integrity:mismatches"));
  EXPECT_TRUE(names.count("integrity:repairs"));
  EXPECT_TRUE(names.count("integrity:repair_journal"));
}

/// --- the background patrol (svc) -----------------------------------------

TEST(Patrol, ScrubsIdleMeshesAndRepairsBetweenOperations) {
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  pm->setIntegrity(true);
  failover::BuddyJournal journal;
  di::Armor& armor = pm->armor();
  armor.setJournal(&journal);
  armor.sealAndMaybeInject();
  const std::uint64_t fp = pm->fingerprint();

  svc::Patrol patrol(1);
  std::mutex guard;
  const auto id = patrol.watch(pm.get(), &guard);

  // Corrupt while "idle" (guard free): the patrol must find and repair it
  // without any operation running.
  {
    std::lock_guard<std::mutex> hold(guard);
    const std::string sec = sectionWithPrefix(armor, 2, "pool:");
    ASSERT_FALSE(sec.empty());
    corruptSection(pm->part(2).mesh(), sec, 1);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (patrol.stats().repairs == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  patrol.unwatch(id);

  const auto st = patrol.stats();
  EXPECT_GE(st.sweeps, 1u);
  EXPECT_GE(st.scrubs, 1u);
  EXPECT_GE(st.repairs, 1u) << "the patrol never found the corruption";
  EXPECT_EQ(st.fatals, 0u);
  EXPECT_EQ(pm->fingerprint(), fp) << "scrub must restore the sealed state";
  EXPECT_NO_THROW(pm->verify());
}

TEST(Patrol, NeverTouchesABusyMesh) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 4);
  pm->setIntegrity(true);
  pm->armor().sealAndMaybeInject();

  svc::Patrol patrol(1);
  std::mutex guard;
  guard.lock();  // the owner is "mid-operation" for the whole test
  const auto id = patrol.watch(pm.get(), &guard);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (patrol.stats().busy == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  patrol.unwatch(id);
  guard.unlock();
  const auto st = patrol.stats();
  EXPECT_GE(st.busy, 1u);
  EXPECT_EQ(st.scrubs, 0u) << "a held guard must always skip the mesh";
}

/// --- end to end through the service --------------------------------------

TEST(SvcIntegrity, MemflipJobCompletesWithTheSameDigestAsItsCleanTwin) {
  svc::SchedulerOptions opts;
  opts.pool_size = 8;
  opts.workers = 1;
  opts.patrol = true;
  opts.patrol_interval_ms = 1;
  svc::Scheduler sched(opts);

  auto makeJob = [](const std::string& name, const std::string& chaos) {
    svc::JobSpec s;
    s.tenant = "acme";
    s.name = name;
    s.width = 4;
    s.seed = 19;
    s.nx = s.ny = s.nz = 3;
    s.migrate_rounds = 2;
    s.chaos.faults = chaos;
    return s;
  };
  const auto clean = sched.run(makeJob("clean", ""));
  const auto armed =
      sched.run(makeJob("armed", "seed=41,memflip=3@1"));
  ASSERT_EQ(clean.state, svc::JobState::kCompleted) << clean.reason;
  ASSERT_EQ(armed.state, svc::JobState::kCompleted) << armed.reason;
  EXPECT_EQ(armed.digest, clean.digest)
      << "the armored job must land on the exact same mesh";
  EXPECT_EQ(armed.elements, clean.elements);
  EXPECT_EQ(clean.integrity_flips, 0);
  if (armed.integrity_flips > 0) {
    EXPECT_GE(armed.integrity_repairs, 1)
        << "an injected flip must surface as a repair, never silently";
  }

  const auto report = sched.report();
  const auto* t = report.tenant("acme");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->completed, 2);
  EXPECT_EQ(t->integrity_flips, armed.integrity_flips);
  EXPECT_EQ(t->integrity_repairs,
            clean.integrity_repairs + armed.integrity_repairs);
}

/// --- slot-order table walks -------------------------------------------------

/// The canonical table streams as the sort-based encoder wrote them: records
/// sorted by packed handle, every field a u64 word. The slot walks that
/// replaced the sort must match it for any map contents.
template <class Map, class Put>
std::vector<std::byte> sortedReference(const Map& map, Put&& put) {
  std::vector<Ent> keys;
  for (const auto& kv : map) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end(),
            [](Ent a, Ent b) { return a.packed() < b.packed(); });
  std::vector<std::uint64_t> words;
  for (Ent e : keys) put(words, e, map.find(e)->second);
  std::vector<std::byte> out(words.size() * 8);
  if (!words.empty()) std::memcpy(out.data(), words.data(), out.size());
  return out;
}

std::uint64_t word(PartId p) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(p));
}

std::vector<std::byte> referenceRemotes(const dist::Part& part) {
  return sortedReference(
      part.remotes(),
      [](std::vector<std::uint64_t>& w, Ent e, const dist::Remote& r) {
        w.push_back(e.packed());
        w.push_back(word(r.owner));
        w.push_back(r.copies.size());
        for (const dist::Copy& c : r.copies) {
          w.push_back(word(c.part));
          w.push_back(c.ent.packed());
        }
      });
}

std::vector<std::byte> referenceGhostSources(const dist::Part& part) {
  return sortedReference(
      dist::CheckpointAccess::ghostSource(part),
      [](std::vector<std::uint64_t>& w, Ent g, const dist::Copy& c) {
        w.push_back(g.packed());
        w.push_back(word(c.part));
        w.push_back(c.ent.packed());
      });
}

std::vector<std::byte> referenceGhostedOn(const dist::Part& part) {
  return sortedReference(
      dist::CheckpointAccess::ghostedOn(part),
      [](std::vector<std::uint64_t>& w, Ent e,
         const std::vector<dist::Copy>& copies) {
        w.push_back(e.packed());
        w.push_back(copies.size());
        for (const dist::Copy& c : copies) {
          w.push_back(word(c.part));
          w.push_back(c.ent.packed());
        }
      });
}

/// Keys no live entity has: a freed vertex slot, slots past each pool, a
/// huge index, the null handle and a topology code past the enum.
std::vector<Ent> strayKeys(core::Mesh& m) {
  const Ent freed = m.createVertex({9, 9, 9});
  m.destroy(freed);
  return {freed,
          Ent(core::Topo::Tet, m.slots(core::Topo::Tet) + 3),
          Ent(core::Topo::Edge, m.slots(core::Topo::Edge)),
          Ent(core::Topo::Pyramid, 7),
          Ent(core::Topo::Tri, 0xfffffff0u),
          Ent(),
          Ent::unpack((std::uint64_t{9} << 32) | 1)};
}

TEST(SlotWalk, TableStreamsMatchTheSortedEncoderForAnyKeys) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 3);
  pm->ghostLayers(1);
  dist::Part& part = pm->part(1);
  ASSERT_GT(part.ghostCount(), 0u);
  EXPECT_EQ(di::remotesStream(part), referenceRemotes(part));
  EXPECT_EQ(di::ghostSourceStream(part), referenceGhostSources(part));
  EXPECT_EQ(di::ghostedOnStream(part), referenceGhostedOn(part));
  PartId k = 0;
  for (Ent e : strayKeys(part.mesh())) {
    part.setRemote(e, dist::Remote{{dist::Copy{k, e}}, k});
    dist::CheckpointAccess::setGhost(part, e, dist::Copy{k, e});
    dist::CheckpointAccess::setGhostedOn(part, e, {dist::Copy{k, e}});
    ++k;
  }
  EXPECT_EQ(di::remotesStream(part), referenceRemotes(part));
  EXPECT_EQ(di::ghostSourceStream(part), referenceGhostSources(part));
  EXPECT_EQ(di::ghostedOnStream(part), referenceGhostedOn(part));
}

TEST(SlotWalk, MetaStreamRejectsADeadOrOutOfPoolKey) {
  namespace partio = dist::partio;
  auto gen = meshgen::boxTets(3, 3, 3);
  for (int which = 0; which < 2; ++which) {
    for (const bool ghost : {false, true}) {
      auto pm = makeMesh(gen, 3);
      dist::Part& part = pm->part(0);
      const Ent bad = strayKeys(part.mesh())[static_cast<std::size_t>(which)];
      std::vector<partio::OrdinalMap> ords;
      for (PartId p = 0; p < pm->parts(); ++p)
        ords.push_back(partio::buildOrdinals(pm->part(p).mesh()));
      EXPECT_NO_THROW(partio::buildMeta(part, ords[0], ords));
      const Ent live = *part.mesh().entities(0).begin();
      if (ghost)
        dist::CheckpointAccess::setGhost(part, bad, dist::Copy{1, live});
      else
        part.setRemote(bad, dist::Remote{{dist::Copy{1, live}}, 0});
      EXPECT_THROW(partio::buildMeta(part, ords[0], ords), std::out_of_range)
          << "key " << which << (ghost ? " (ghost source)" : " (remote)");
    }
  }
}

}  // namespace
