/// \file test_pario.cpp
/// \brief Tests for crash-consistent parallel streaming mesh I/O.
///
/// Contract under test (ISSUE: parallel I/O with storage fault injection
/// and self-healing restore): a checkpoint is one chunked, CRC'd,
/// buddy-replicated image committed by an atomically-renamed MANIFEST.
/// Any single chunk copy corrupted or torn must read-repair back to a
/// fingerprint-identical mesh; both copies destroyed must degrade to a
/// partial restore naming exactly the lost parts — never a crash or a
/// hang. Storage faults (iobitrot/iotorn/ioshort/ioenospc/iostall) are
/// seeded and replayable, and a failed checkpoint attempt strands no
/// temp files.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <typeinfo>
#include <vector>

#include "adapt/sizefield.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/meshio.hpp"
#include "dist/padapt.hpp"
#include "dist/pario.hpp"
#include "dist/partedmesh.hpp"
#include "dist/partio.hpp"
#include "meshgen/boxmesh.hpp"
#include "part/partition.hpp"
#include "pcu/buffer.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"
#include "solver/poisson.hpp"

namespace {

namespace fs = std::filesystem;
namespace pario = dist::pario;
namespace faults = pcu::faults;
using core::Ent;
using dist::PartId;
using pcu::Error;
using pcu::ErrorCode;

struct PlanGuard {
  explicit PlanGuard(const faults::FaultPlan& p) { faults::setPlan(p); }
  ~PlanGuard() { faults::clearPlan(); }
  PlanGuard(const PlanGuard&) = delete;
  PlanGuard& operator=(const PlanGuard&) = delete;
};

std::string freshDir(const std::string& leaf) {
  const fs::path d = fs::temp_directory_path() / "pumi_test_pario" / leaf;
  fs::remove_all(d);
  return d.string();
}

std::unique_ptr<dist::PartedMesh> makeMesh(const meshgen::Generated& gen,
                                           int nparts) {
  const auto assign = part::partition(*gen.mesh, nparts, part::Method::RCB);
  return dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
}

/// Flip one byte of `path` at `offset`.
void flipByte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

/// Zero the second half of a chunk copy — the on-disk shape of a torn
/// write whose prefix persisted.
void tearChunk(const std::string& path, std::uint64_t chunk_off,
               std::uint64_t payload_len) {
  const std::uint64_t total = pario::kChunkHeaderBytes + payload_len;
  const std::uint64_t keep = total / 2;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  std::vector<char> zeros(static_cast<std::size_t>(total - keep), 0);
  f.seekp(static_cast<std::streamoff>(chunk_off + keep));
  f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
}

std::vector<std::string> tmpFilesIn(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)
      out.push_back(name);
  }
  return out;
}

std::vector<std::string> imageFilesIn(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("IMAGE.", 0) == 0) out.push_back(name);
  }
  return out;
}

/// --- fault-plan grammar ---------------------------------------------------

TEST(IoFaultPlan, ParsesStorageTokens) {
  const auto p = faults::parsePlan(
      "seed=7,iobitrot=0.5,iotorn=0.125,ioshort=0.25,ioenospc=0.0625,"
      "iostall=0.03125,iostallms=3");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_DOUBLE_EQ(p.iobitrot, 0.5);
  EXPECT_DOUBLE_EQ(p.iotorn, 0.125);
  EXPECT_DOUBLE_EQ(p.ioshort, 0.25);
  EXPECT_DOUBLE_EQ(p.ioenospc, 0.0625);
  EXPECT_DOUBLE_EQ(p.iostall, 0.03125);
  EXPECT_EQ(p.iostall_ms, 3);
  EXPECT_TRUE(p.ioInjects());
  // Storage-only plans never arm the message path.
  EXPECT_FALSE(p.injects());
}

TEST(IoFaultPlan, RejectsMalformedStorageTokens) {
  EXPECT_THROW(faults::parsePlan("iobitrot=1.5"), Error);
  EXPECT_THROW(faults::parsePlan("ioenospc=-0.1"), Error);
  EXPECT_THROW(faults::parsePlan("iotorn=0.1x"), Error);
  EXPECT_THROW(faults::parsePlan("iostallms=-1"), Error);
  EXPECT_THROW(faults::parsePlan("iotorn=0.1,iotorn=0.2"), Error);
}

TEST(IoFaultPlan, StorageOnlyPlanGatesOnlyTheShim) {
  faults::FaultPlan p;
  p.seed = 11;
  p.iobitrot = 0.5;
  PlanGuard g(p);
  EXPECT_TRUE(faults::ioEnabled());
  // No message injection, no framing: the transport path is untouched.
  EXPECT_FALSE(faults::enabled());
}

TEST(IoFaultPlan, DecisionsArePureAndSeeded) {
  faults::FaultPlan p;
  p.seed = 42;
  p.iobitrot = 0.3;
  p.ioshort = 0.2;
  p.iostall = 0.1;
  const std::uint64_t h = faults::ioPathHash("/a/b/IMAGE.1");
  std::vector<faults::IoAction> first;
  {
    PlanGuard g(p);
    for (std::uint64_t off = 0; off < 4096; off += 64)
      first.push_back(faults::decideIo(faults::IoOp::kRead, h, off));
  }
  {
    PlanGuard g(p);
    std::size_t i = 0;
    for (std::uint64_t off = 0; off < 4096; off += 64)
      EXPECT_EQ(faults::decideIo(faults::IoOp::kRead, h, off), first[i++]);
  }
  // A different seed must not replay the same decision stream.
  p.seed = 43;
  {
    PlanGuard g(p);
    std::size_t same = 0, i = 0;
    for (std::uint64_t off = 0; off < 4096; off += 64)
      if (faults::decideIo(faults::IoOp::kRead, h, off) == first[i++]) ++same;
    EXPECT_LT(same, first.size());
  }
}

TEST(IoFaultPlan, PathHashCoversBasenameOnly) {
  EXPECT_EQ(faults::ioPathHash("/tmp/run1/IMAGE.1"),
            faults::ioPathHash("/var/other/IMAGE.1"));
  EXPECT_NE(faults::ioPathHash("/tmp/IMAGE.1"),
            faults::ioPathHash("/tmp/IMAGE.2"));
}

/// --- the io-chaos matrix (acceptance) ------------------------------------

struct ChaosCase {
  std::uint64_t seed;
  bool three_d;
};

class IoChaosMatrix : public ::testing::TestWithParam<ChaosCase> {};

/// Single chunk copy corrupted (even seeds) or torn (odd seeds): restore
/// must read-repair from the buddy replica and rebuild the identical mesh
/// — zero elements lost, and the repair persists on disk.
TEST_P(IoChaosMatrix, SingleCopyDamageRepairsToIdenticalMesh) {
  const auto [seed, three_d] = GetParam();
  auto gen = three_d ? meshgen::boxTets(3, 3, 3) : meshgen::boxTris(5, 5);
  const int nparts = 4;
  auto pm = makeMesh(gen, nparts);
  const std::uint64_t fp = pm->fingerprint();
  const std::size_t nelem = pm->globalCount(pm->dim());

  const auto dir =
      freshDir("chaos1_" + std::to_string(seed) + (three_d ? "_3d" : "_2d"));
  pario::checkpointImage(*pm, dir);

  // Pick the victim chunk copy from the seed: part, mesh-or-meta chunk,
  // primary-or-replica copy, and the damage mode.
  common::Rng rng(seed * 1315423911ull + 17);
  const auto idx = pario::loadIndex(dir);
  const auto victim_part =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(nparts)));
  const auto& slots = idx.parts[static_cast<std::size_t>(victim_part)];
  const auto& slot = (rng.below(2) == 0) ? slots.mesh : slots.meta;
  const bool hit_primary = rng.below(2) == 0;
  const std::uint64_t off = hit_primary ? slot.primary : slot.replica;
  const std::string image = dir + "/" + idx.image;
  if (seed % 2 == 0) {
    const std::uint64_t payload_at =
        off + pario::kChunkHeaderBytes +
        rng.below(slot.length > 0 ? slot.length : 1);
    flipByte(image, payload_at);
  } else {
    tearChunk(image, off, slot.length);
  }

  pario::RestoreReport report;
  auto restored = pario::restoreImage(dir, gen.model.get(),
                                      pario::OnLoss::kFail, &report);
  EXPECT_EQ(restored->fingerprint(), fp) << "seed " << seed;
  EXPECT_EQ(restored->globalCount(restored->dim()), nelem);
  EXPECT_TRUE(report.lost.empty());
  EXPECT_EQ(report.chunks_lost, 0u);
  if (hit_primary) {
    // Restore noticed the bad primary, served the replica, and wrote the
    // repair back: nothing left for a scrub to fix.
    EXPECT_EQ(report.chunks_repaired, 1u);
    EXPECT_EQ(pario::scrub(dir).chunks_repaired, 0u) << "seed " << seed;
  } else {
    // A damaged replica is invisible to the restore fast path (the good
    // primary serves the read); the offline scrub is what heals it.
    EXPECT_EQ(report.chunks_repaired, 0u);
    EXPECT_EQ(pario::scrub(dir).chunks_repaired, 1u) << "seed " << seed;
  }
  // Either way the directory ends fully intact.
  const auto after = pario::scrub(dir);
  EXPECT_EQ(after.chunks_repaired, 0u);
  EXPECT_TRUE(after.clean());
}

/// Both copies of a chunk destroyed: OnLoss::kFail names the lost part
/// and throws; OnLoss::kPartial loads every surviving part, reports
/// exactly the lost one, and the partial mesh passes verify().
TEST_P(IoChaosMatrix, BothCopiesGoneDegradesToPartialRestore) {
  const auto [seed, three_d] = GetParam();
  auto gen = three_d ? meshgen::boxTets(3, 3, 3) : meshgen::boxTris(5, 5);
  const int nparts = 4;
  auto pm = makeMesh(gen, nparts);
  const int dim = pm->dim();
  const std::size_t nelem = pm->globalCount(dim);

  const auto dir =
      freshDir("chaos2_" + std::to_string(seed) + (three_d ? "_3d" : "_2d"));
  pario::checkpointImage(*pm, dir);

  common::Rng rng(seed * 2654435761ull + 3);
  const auto idx = pario::loadIndex(dir);
  const auto victim_part =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(nparts)));
  const std::size_t victim_elems =
      pm->part(victim_part).elements().size();
  const auto& slots = idx.parts[static_cast<std::size_t>(victim_part)];
  const auto& slot = (rng.below(2) == 0) ? slots.mesh : slots.meta;
  const std::string image = dir + "/" + idx.image;
  for (const std::uint64_t off : {slot.primary, slot.replica}) {
    if (seed % 2 == 0)
      flipByte(image, off + pario::kChunkHeaderBytes + slot.length / 2);
    else
      tearChunk(image, off, slot.length);
  }

  EXPECT_FALSE(pario::valid(dir));
  try {
    pario::restoreImage(dir, gen.model.get(), pario::OnLoss::kFail);
    FAIL() << "fail-fast restore accepted unrecoverable loss, seed " << seed;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(
        e.detail().find("lost part(s) " + std::to_string(victim_part)),
        std::string::npos)
        << e.what();
  }

  pario::RestoreReport report;
  auto restored = pario::restoreImage(dir, gen.model.get(),
                                      pario::OnLoss::kPartial, &report);
  ASSERT_EQ(report.lost.size(), 1u) << "seed " << seed;
  EXPECT_EQ(report.lost[0], victim_part);
  EXPECT_TRUE(report.partial());
  // Every surviving part loaded: the lost part is empty, the rest carry
  // exactly the elements they checkpointed.
  EXPECT_EQ(restored->part(victim_part).elements().size(), 0u);
  EXPECT_EQ(restored->globalCount(dim), nelem - victim_elems);
  EXPECT_NO_THROW(restored->verify()) << "seed " << seed;
}

std::vector<ChaosCase> chaosCases() {
  std::vector<ChaosCase> cases;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    cases.push_back({seed, false});
    cases.push_back({seed, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, IoChaosMatrix,
                         ::testing::ValuesIn(chaosCases()),
                         [](const auto& info) {
                           return "seed" +
                                  std::to_string(info.param.seed) +
                                  (info.param.three_d ? "_3d" : "_2d");
                         });

/// Under seeded injected storage chaos on the read path, restore must
/// always terminate with either a correct mesh or a structured error —
/// never a crash, never silently wrong data.
TEST(IoChaos, RestoreNeverCrashesUnderInjectedReadFaults) {
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  const std::uint64_t fp = pm->fingerprint();
  const auto dir = freshDir("injected_read");
  pario::checkpointImage(*pm, dir);

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    faults::FaultPlan p;
    p.seed = seed;
    p.iobitrot = 0.02;
    p.ioshort = 0.01;
    PlanGuard g(p);
    try {
      auto restored = pario::restoreImage(dir, gen.model.get(),
                                          pario::OnLoss::kPartial);
      if (!restored) continue;
      // Loaded parts are CRC-gated, so a full restore is bit-identical.
      if (restored->parts() == 4 && restored->globalCount(2) > 0) {
        EXPECT_NO_THROW(restored->verify()) << "seed " << seed;
      }
    } catch (const Error& e) {
      EXPECT_FALSE(std::string(e.what()).empty()) << "seed " << seed;
    }
  }
  // With the plan cleared the checkpoint is still intact on disk.
  faults::clearPlan();
  auto restored = pario::restoreImage(dir, gen.model.get());
  EXPECT_EQ(restored->fingerprint(), fp);
}

/// Injected write chaos: a checkpoint either commits (and then restores,
/// possibly via read-repair of torn copies) or fails structured with the
/// directory's previous state intact — never a half-committed manifest.
TEST(IoChaos, CheckpointUnderInjectedWriteFaultsIsAtomic) {
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  const std::uint64_t fp = pm->fingerprint();
  const auto dir = freshDir("injected_write");
  pario::checkpointImage(*pm, dir);  // a known-good generation-1 checkpoint

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    faults::FaultPlan p;
    p.seed = seed;
    p.iotorn = 0.05;
    p.ioenospc = 0.02;
    {
      PlanGuard g(p);
      try {
        pario::checkpointImage(*pm, dir);
      } catch (const Error& e) {
        EXPECT_TRUE(e.code() == ErrorCode::kIoFault ||
                    e.code() == ErrorCode::kValidation)
            << e.what();
      }
    }
    // Whatever happened, no temp files survive and the directory holds a
    // checkpoint that restores to the identical mesh (torn chunk copies
    // are read-repaired; an aborted attempt left generation 1 alone).
    EXPECT_TRUE(tmpFilesIn(dir).empty()) << "seed " << seed;
    auto restored = pario::restoreImage(dir, gen.model.get(),
                                        pario::OnLoss::kPartial);
    EXPECT_EQ(restored->fingerprint(), fp) << "seed " << seed;
  }
}

/// --- crash consistency ----------------------------------------------------

TEST(PariaCrash, EnospcMidCheckpointLeaksNoTempFiles) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const auto dir = freshDir("enospc");

  faults::FaultPlan p;
  p.seed = 5;
  p.ioenospc = 1.0;  // every write fails: the attempt dies immediately
  {
    PlanGuard g(p);
    try {
      pario::checkpointImage(*pm, dir);
      FAIL() << "checkpoint succeeded with every write failing ENOSPC";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIoFault);
      EXPECT_NE(e.detail().find("ENOSPC"), std::string::npos) << e.what();
    }
  }
  // The regression: the failed attempt must strand nothing — no *.tmp, no
  // orphan image, no manifest.
  EXPECT_TRUE(tmpFilesIn(dir).empty());
  EXPECT_TRUE(imageFilesIn(dir).empty());
  EXPECT_FALSE(fs::exists(fs::path(dir) / "MANIFEST"));
  EXPECT_FALSE(pario::valid(dir));
}

TEST(PariaCrash, EnospcRecheckpointPreservesPreviousGeneration) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const std::uint64_t fp = pm->fingerprint();
  const auto dir = freshDir("enospc2");
  pario::checkpointImage(*pm, dir);
  ASSERT_TRUE(pario::valid(dir));

  faults::FaultPlan p;
  p.seed = 6;
  p.ioenospc = 1.0;
  {
    PlanGuard g(p);
    EXPECT_THROW(pario::checkpointImage(*pm, dir), Error);
  }
  EXPECT_TRUE(tmpFilesIn(dir).empty());
  EXPECT_TRUE(pario::valid(dir));
  auto restored = pario::restoreImage(dir, gen.model.get());
  EXPECT_EQ(restored->fingerprint(), fp);
  EXPECT_EQ(pario::loadIndex(dir).generation, 1u);
}

/// A crash between the image rename and the MANIFEST rename (the state a
/// double-checkpoint interrupts into): the directory must keep restoring
/// the previous generation, and the next checkpoint must sweep the orphan
/// image and stray temp file on its way to committing.
TEST(PariaCrash, CrashBetweenRenamesKeepsPreviousGenerationRestorable) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const std::uint64_t fp = pm->fingerprint();
  const auto dir = freshDir("between_renames");
  pario::checkpointImage(*pm, dir);
  const auto idx1 = pario::loadIndex(dir);
  ASSERT_EQ(idx1.generation, 1u);

  // Fabricate the crash state: IMAGE.2 fully renamed in, MANIFEST.tmp
  // written but never renamed over MANIFEST.
  fs::copy_file(fs::path(dir) / idx1.image, fs::path(dir) / "IMAGE.2");
  {
    std::ofstream tmp(fs::path(dir) / "MANIFEST.tmp", std::ios::binary);
    tmp << "half-written manifest bytes";
  }

  // The old MANIFEST still commits generation 1: valid and restorable.
  EXPECT_TRUE(pario::valid(dir));
  EXPECT_EQ(pario::loadIndex(dir).generation, 1u);
  auto restored = pario::restoreImage(dir, gen.model.get());
  EXPECT_EQ(restored->fingerprint(), fp);

  // The next checkpoint sweeps the leavings and commits generation 2:
  // exactly one image file, no temp files, restores identically.
  pario::checkpointImage(*pm, dir);
  EXPECT_TRUE(tmpFilesIn(dir).empty());
  EXPECT_EQ(imageFilesIn(dir), std::vector<std::string>{"IMAGE.2"});
  EXPECT_EQ(pario::loadIndex(dir).generation, 2u);
  auto restored2 = pario::restoreImage(dir, gen.model.get());
  EXPECT_EQ(restored2->fingerprint(), fp);
}

/// --- unreadable directories ----------------------------------------------

TEST(PariaValidation, MissingDirectoryIsStructuredError) {
  const std::string dir = "/nonexistent/pumi/checkpoint";
  auto gen = meshgen::boxTris(2, 2);
  try {
    pario::restoreImage(dir, gen.model.get());
    FAIL() << "restore accepted a nonexistent directory";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find(dir), std::string::npos) << e.what();
  }
  EXPECT_FALSE(pario::valid(dir));
}

TEST(PariaValidation, NotADirectoryIsStructuredError) {
  // /dev/null/sub can never be a directory (ENOTDIR on every syscall).
  const std::string dir = "/dev/null/sub";
  auto gen = meshgen::boxTris(2, 2);
  try {
    pario::restoreImage(dir, gen.model.get());
    FAIL() << "restore accepted a path under a non-directory";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find(dir), std::string::npos) << e.what();
  }
}

TEST(PariaValidation, FileInPlaceOfDirectoryIsStructuredError) {
  const auto parent = freshDir("notadir");
  fs::create_directories(parent);
  const std::string dir = parent + "/plainfile";
  {
    std::ofstream f(dir);
    f << "not a directory";
  }
  auto gen = meshgen::boxTris(2, 2);
  try {
    pario::restoreImage(dir, gen.model.get());
    FAIL() << "restore accepted a plain file as a checkpoint directory";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("not a directory"), std::string::npos)
        << e.what();
  }
}

TEST(PariaValidation, PermissionDeniedDirectoryIsStructuredError) {
  if (::geteuid() == 0) GTEST_SKIP() << "root ignores directory modes";
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 2);
  const auto dir = freshDir("denied");
  pario::checkpointImage(*pm, dir);
  fs::permissions(dir, fs::perms::none);
  try {
    pario::restoreImage(dir, gen.model.get());
    FAIL() << "restore accepted an unreadable directory";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find(dir), std::string::npos) << e.what();
  }
  fs::permissions(dir, fs::perms::owner_all);
}

TEST(PariaValidation, TruncatedManifestIsStructuredError) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 2);
  const auto dir = freshDir("truncman");
  pario::checkpointImage(*pm, dir);
  fs::resize_file(fs::path(dir) / "MANIFEST", 13);
  EXPECT_FALSE(pario::valid(dir));
  EXPECT_THROW(pario::restoreImage(dir, gen.model.get()), Error);
}

TEST(PariaValidation, BitflippedManifestFailsItsOwnCrc) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 2);
  const auto dir = freshDir("manflip");
  pario::checkpointImage(*pm, dir);
  flipByte(dir + "/MANIFEST", 20);
  try {
    pario::restoreImage(dir, gen.model.get());
    FAIL() << "restore accepted a bit-flipped MANIFEST";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("CRC"), std::string::npos) << e.what();
  }
}

TEST(PariaValidation, MetadataNamingAPartOutOfRangeIsAValidationError) {
  // CRC-valid but malformed metadata: each of the three cross-part
  // references (remote copy, ghost source, ghosted-on copy) names a part
  // the mesh does not have. The resolver must reject it, not index past
  // its tables.
  namespace partio = dist::partio;
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 2);
  partio::EntResolver ents(2);
  for (PartId p = 0; p < 2; ++p) ents.index(p, pm->part(p).mesh());
  const std::uint64_t ref = partio::entref(0, 0);
  enum class Field { kRemoteCopy, kGhostSource, kGhostedOn };
  auto metaNaming = [ref](Field f, std::int32_t bad) {
    pcu::OutBuffer b;
    b.pack(partio::kMetaMagic);
    b.pack<std::uint64_t>(f == Field::kRemoteCopy ? 1 : 0);
    if (f == Field::kRemoteCopy) {
      b.pack<std::uint64_t>(ref);
      b.pack<std::int32_t>(0);  // owner
      b.pack<std::uint64_t>(1);
      b.pack<std::int32_t>(bad);
      b.pack<std::uint64_t>(ref);
    }
    b.pack<std::uint64_t>(f == Field::kGhostSource ? 1 : 0);
    if (f == Field::kGhostSource) {
      b.pack<std::uint64_t>(ref);
      b.pack<std::int32_t>(bad);
      b.pack<std::uint64_t>(ref);
    }
    b.pack<std::uint64_t>(f == Field::kGhostedOn ? 1 : 0);
    if (f == Field::kGhostedOn) {
      b.pack<std::uint64_t>(ref);
      b.pack<std::uint64_t>(1);
      b.pack<std::int32_t>(bad);
      b.pack<std::uint64_t>(ref);
    }
    return std::move(b).take();
  };
  for (Field f : {Field::kRemoteCopy, Field::kGhostSource, Field::kGhostedOn})
    for (std::int32_t bad : {99, -1}) {
      try {
        partio::applyMeta(pm->part(0), 0, metaNaming(f, bad), ents,
                          "hand-built metadata");
        FAIL() << "applyMeta resolved part " << bad;
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kValidation) << e.what();
        EXPECT_NE(e.detail().find("part " + std::to_string(bad)),
                  std::string::npos)
            << e.what();
      }
    }
  // A partial restore filters only parts marked lost: an out-of-range
  // copy is still malformed.
  EXPECT_THROW(partio::applyMeta(pm->part(0), 0,
                                 metaNaming(Field::kRemoteCopy, 99), ents,
                                 "hand-built metadata", {1}),
               Error);
}

/// --- edge cases -----------------------------------------------------------

TEST(PariaEdge, ZeroEntityPartsRoundTrip) {
  // All elements pinned to part 0 of a 3-part mesh: parts 1 and 2 are
  // completely empty and must survive the chunk round trip as such.
  auto gen = meshgen::boxTris(4, 4);
  const std::size_t nelem = gen.mesh->all(2).size();
  std::vector<dist::PartId> assign(nelem, 0);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(3, pcu::Machine::flat(3)));
  const std::uint64_t fp = pm->fingerprint();

  const auto dir = freshDir("emptyparts");
  pario::checkpointImage(*pm, dir);
  EXPECT_TRUE(pario::valid(dir));
  EXPECT_EQ(pario::scrub(dir).chunks_lost, 0u);
  auto restored = pario::restoreImage(dir, gen.model.get());
  EXPECT_EQ(restored->fingerprint(), fp);
  EXPECT_EQ(restored->part(1).elements().size(), 0u);
  EXPECT_EQ(restored->part(2).elements().size(), 0u);
}

TEST(PariaEdge, ZeroLengthTagPayloadRoundTrips) {
  // CRC-of-empty edge: a transportable tag attached with an empty value
  // vector serializes as a zero-length payload inside the mesh stream.
  EXPECT_EQ(faults::crc32(nullptr, 0), 0u);

  auto gen = meshgen::boxTris(3, 3);
  auto* marks = gen.mesh->tags().create<double>("marks", 0);
  const Ent v0 = gen.mesh->all(0).front();
  gen.mesh->tags().set<double>(marks, v0, {});
  auto pm = makeMesh(gen, 2);
  const std::uint64_t fp = pm->fingerprint();

  const auto dir = freshDir("emptytag");
  pario::checkpointImage(*pm, dir);
  auto restored = pario::restoreImage(dir, gen.model.get());
  EXPECT_EQ(restored->fingerprint(), fp);
  // The empty-valued tag survived on whichever part owns that vertex.
  bool found = false;
  for (PartId p = 0; p < restored->parts(); ++p) {
    auto* t = restored->part(p).mesh().tags().find("marks");
    if (t == nullptr) continue;
    for (Ent v : restored->part(p).mesh().entities(0))
      if (t->has(v)) {
        EXPECT_TRUE(
            restored->part(p).mesh().tags().get<double>(t, v).empty());
        found = true;
      }
  }
  EXPECT_TRUE(found);
}

/// --- partition-on-read ----------------------------------------------------

TEST(PariaRead, PartitionOnReadMapsPartsToTargetRanks) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 6);
  const std::uint64_t fp = pm->fingerprint();
  const auto dir = freshDir("n_to_m");
  pario::checkpointImage(*pm, dir);

  // 6 writers -> 2 readers: part p must land on rank p % 2.
  auto onto2 = pario::restoreImage(dir, gen.model.get(), 2);
  EXPECT_EQ(onto2->fingerprint(), fp);
  for (PartId p = 0; p < onto2->parts(); ++p)
    EXPECT_EQ(onto2->network().partMap().rankOf(p), p % 2);

  // 6 writers -> 8 readers: identity assignment, two idle ranks.
  auto onto8 = pario::restoreImage(dir, gen.model.get(), 8);
  EXPECT_EQ(onto8->fingerprint(), fp);
  for (PartId p = 0; p < onto8->parts(); ++p)
    EXPECT_EQ(onto8->network().partMap().rankOf(p), p);
}

TEST(PariaRead, PartBytesReadRepairsDamagedCopy) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const auto dir = freshDir("partbytes");
  pario::checkpointImage(*pm, dir);
  const auto clean = pario::partBytes(dir, 1);

  const auto idx = pario::loadIndex(dir);
  const auto& slot = idx.parts[1].mesh;
  flipByte(dir + "/" + idx.image,
           slot.primary + pario::kChunkHeaderBytes + slot.length / 3);
  const auto repaired = pario::partBytes(dir, 1);
  EXPECT_EQ(repaired.first, clean.first);
  EXPECT_EQ(repaired.second, clean.second);

  // Both copies gone: structured kCorruptPayload, not a crash.
  const auto idx2 = pario::loadIndex(dir);
  for (const std::uint64_t off :
       {idx2.parts[1].mesh.primary, idx2.parts[1].mesh.replica})
    flipByte(dir + "/" + idx2.image,
             off + pario::kChunkHeaderBytes + slot.length / 3);
  EXPECT_THROW(
      {
        try {
          pario::partBytes(dir, 1);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload);
          throw;
        }
      },
      Error);
}

/// --- scrub ----------------------------------------------------------------

TEST(PariaScrub, RepairsEveryDamagedCopyOnce) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 4);
  const std::uint64_t fp = pm->fingerprint();
  const auto dir = freshDir("scrub");
  pario::checkpointImage(*pm, dir);

  const auto clean = pario::scrub(dir);
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.chunks_repaired, 0u);
  EXPECT_EQ(clean.chunks_ok, 8u);  // 4 parts x {mesh, meta}

  // Damage three different copies across parts and chunk types.
  const auto idx = pario::loadIndex(dir);
  const std::string image = dir + "/" + idx.image;
  flipByte(image, idx.parts[0].mesh.primary + pario::kChunkHeaderBytes + 5);
  flipByte(image, idx.parts[2].meta.replica + pario::kChunkHeaderBytes + 1);
  tearChunk(image, idx.parts[3].mesh.replica, idx.parts[3].mesh.length);

  const auto fixed = pario::scrub(dir);
  EXPECT_TRUE(fixed.clean());
  EXPECT_EQ(fixed.chunks_repaired, 3u);
  EXPECT_TRUE(fixed.lost_parts.empty());
  // Idempotent: a second scrub finds a fully clean checkpoint.
  const auto again = pario::scrub(dir);
  EXPECT_EQ(again.chunks_repaired, 0u);
  EXPECT_EQ(again.chunks_ok, 8u);
  auto restored = pario::restoreImage(dir, gen.model.get());
  EXPECT_EQ(restored->fingerprint(), fp);
}

TEST(PariaScrub, ReportsLostChunksWithoutThrowing) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const auto dir = freshDir("scrublost");
  pario::checkpointImage(*pm, dir);
  const auto idx = pario::loadIndex(dir);
  const std::string image = dir + "/" + idx.image;
  for (const std::uint64_t off :
       {idx.parts[2].meta.primary, idx.parts[2].meta.replica})
    flipByte(image, off + pario::kChunkHeaderBytes + 2);

  const auto rep = pario::scrub(dir);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.chunks_lost, 1u);
  EXPECT_EQ(rep.lost_parts, std::vector<PartId>{2});
}

/// --- double checkpoint ----------------------------------------------------

TEST(PariaWrite, RecheckpointAdvancesGenerationAndSweepsOldImage) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const auto dir = freshDir("regen");
  const auto s1 = pario::checkpointImage(*pm, dir);
  EXPECT_EQ(s1.generation, 1u);
  EXPECT_EQ(s1.chunks, 3u * 2u * 2u);  // parts x {mesh,meta} x {pri,rep}
  const auto s2 = pario::checkpointImage(*pm, dir);
  EXPECT_EQ(s2.generation, 2u);
  EXPECT_EQ(imageFilesIn(dir), std::vector<std::string>{"IMAGE.2"});
  EXPECT_TRUE(pario::valid(dir));
}

/// --- report determinism (integrity armor rides on these lists) -----------

/// Multi-part loss: the lost-part list must come back SORTED and
/// bit-identical across reruns of the same damaged image — the integrity
/// and failover reports are diffed by tooling and replayed by seed, so a
/// hash-map iteration order leaking into the list would break both.
TEST(PariaReport, LostPartListIsSortedAndDeterministicAcrossReruns) {
  auto gen = meshgen::boxTris(6, 6);
  const int nparts = 6;
  auto pm = makeMesh(gen, nparts);
  const auto dir = freshDir("report_determinism");
  pario::checkpointImage(*pm, dir);

  // Destroy both copies of three parts' mesh chunks, deliberately in
  // non-sorted order (4, then 1, then 3).
  const auto idx = pario::loadIndex(dir);
  const std::string image = dir + "/" + idx.image;
  for (const int victim : {4, 1, 3}) {
    const auto& slot = idx.parts[static_cast<std::size_t>(victim)].mesh;
    for (const std::uint64_t off : {slot.primary, slot.replica})
      flipByte(image, off + pario::kChunkHeaderBytes + slot.length / 3);
  }

  auto runOnce = [&] {
    pario::RestoreReport report;
    auto restored = pario::restoreImage(dir, gen.model.get(),
                                        pario::OnLoss::kPartial, &report);
    EXPECT_NO_THROW(restored->verify());
    return report;
  };
  const auto a = runOnce();
  const auto b = runOnce();

  EXPECT_EQ(a.lost, (std::vector<dist::PartId>{1, 3, 4}))
      << "lost parts must be sorted, not in damage/discovery order";
  EXPECT_EQ(b.lost, a.lost) << "rerun diverged: the list is not a function "
                               "of the image content";
  EXPECT_EQ(b.chunks_lost, a.chunks_lost);
  EXPECT_EQ(b.chunks_repaired, a.chunks_repaired);
  EXPECT_TRUE(a.partial());
}

/// --- format pins ----------------------------------------------------------

/// The persisted streams (meshToBytes, the partio metadata stream and the
/// pario chunks that carry both) are a compatibility contract: journals,
/// checkpoints and their CRCs must come out byte-identical whatever the
/// serializers do internally. The fixture is a seeded 4-part boxTets(4),
/// uniformly refined, with a seeded int tag on elements and a long tag on
/// vertices, solved (the double field "u"), then ghosted and tag-synced,
/// so every tag type and every metadata table is present. The constants
/// were recorded with the byte-at-a-time CRC and the hash-map-based
/// serializers the current ones replaced.
std::unique_ptr<dist::PartedMesh> pinnedMesh(const meshgen::Generated& gen) {
  auto pm = makeMesh(gen, 4);
  dist::refineParted(*pm, adapt::UniformSize(0.17));
  common::Rng rng(2012);
  for (PartId p = 0; p < pm->parts(); ++p) {
    core::Mesh& m = pm->part(p).mesh();
    auto mark = m.tags().create<int>("pin:mark", 1);
    for (Ent e : m.entities(3))
      m.tags().setScalar<int>(mark, e, static_cast<int>(rng.below(1000)));
    auto stamp = m.tags().create<long>("pin:stamp", 2);
    for (Ent v : m.entities(0)) {
      const auto x = m.point(v);
      m.tags().set<long>(stamp, v,
                         {static_cast<long>(x.x * 1e6),
                          static_cast<long>(x.y * 1e6 + x.z * 1e3)});
    }
  }
  const auto rep = solver::solvePoisson(
      *pm, [](const common::Vec3&) { return 1.0; },
      [](const common::Vec3& x) { return x.x + 2 * x.y; },
      {.max_iterations = 500, .tolerance = 1e-8});
  EXPECT_TRUE(rep.converged);
  pm->ghostLayers(1);
  pm->syncGhostTags();
  std::set<std::string> types;
  for (const auto* tag : pm->part(0).mesh().tags().list())
    types.insert(tag->type().name());
  EXPECT_EQ(types, (std::set<std::string>{typeid(int).name(),
                                          typeid(long).name(),
                                          typeid(double).name()}));
  EXPECT_GT(pm->part(0).ghostCount(), 0u);
  return pm;
}

std::uint32_t crcOf(const std::vector<std::byte>& b) {
  return common::crc32(b.data(), b.size());
}

TEST(FormatPins, MeshAndMetaStreamsAreByteStable) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = pinnedMesh(gen);
  std::vector<dist::partio::OrdinalMap> ords;
  for (PartId p = 0; p < pm->parts(); ++p)
    ords.push_back(dist::partio::buildOrdinals(pm->part(p).mesh()));
  std::vector<std::uint32_t> mesh_crcs;
  std::vector<std::uint32_t> meta_crcs;
  for (PartId p = 0; p < pm->parts(); ++p) {
    mesh_crcs.push_back(crcOf(core::meshToBytes(pm->part(p).mesh())));
    meta_crcs.push_back(crcOf(dist::partio::buildMeta(
        pm->part(p), ords[static_cast<std::size_t>(p)], ords)));
  }
  const std::vector<std::uint32_t> kMesh = {0x6CB9435Cu, 0xD460CB8Fu,
                                           0x6C179B5Eu, 0x50A73873u};
  const std::vector<std::uint32_t> kMeta = {0x3364997Bu, 0x3CB11106u,
                                           0x8B146716u, 0x9E3BC3C1u};
  EXPECT_EQ(mesh_crcs, kMesh);
  EXPECT_EQ(meta_crcs, kMeta);
}

TEST(FormatPins, CheckpointChunksAreByteStable) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = pinnedMesh(gen);
  const auto dir = freshDir("format_pins");
  pario::checkpointImage(*pm, dir);
  const auto idx = pario::loadIndex(dir);
  std::ifstream image(dir + "/" + idx.image, std::ios::binary);
  ASSERT_TRUE(image.good());
  auto payloadCrc = [&image](const pario::ChunkSlot& slot) {
    std::vector<std::byte> bytes(slot.length);
    image.seekg(static_cast<std::streamoff>(slot.primary +
                                            pario::kChunkHeaderBytes));
    image.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    EXPECT_EQ(crcOf(bytes), slot.crc);
    return crcOf(bytes);
  };
  std::vector<std::uint32_t> crcs;
  for (const auto& part : idx.parts) {
    crcs.push_back(payloadCrc(part.mesh));
    crcs.push_back(payloadCrc(part.meta));
  }
  // Chunk payloads are the two streams verbatim: (mesh, meta) per part.
  const std::vector<std::uint32_t> kChunks = {
      0x6CB9435Cu, 0x3364997Bu, 0xD460CB8Fu, 0x3CB11106u,
      0x6C179B5Eu, 0x8B146716u, 0x50A73873u, 0x9E3BC3C1u};
  EXPECT_EQ(crcs, kChunks);
  fs::remove_all(dir);
}

/// --- encoder pins -----------------------------------------------------------

/// meshToBytes cases FormatPins does not reach, pinned to CRCs recorded
/// with the value-at-a-time encoder the one-pass writer replaced: pool
/// holes, multi-component tags of every transportable type on every
/// dimension, a zero-length value, a tag with no values and a tag of a
/// non-transportable type.
std::vector<std::uint32_t> meshCrcs(const dist::PartedMesh& pm) {
  std::vector<std::uint32_t> out;
  for (PartId p = 0; p < pm.parts(); ++p)
    out.push_back(crcOf(core::meshToBytes(pm.part(p).mesh())));
  return out;
}

/// Encoding the decoded stream must give the stream back.
void expectReencodes(const core::Mesh& m, gmi::Model* model) {
  const auto bytes = core::meshToBytes(m);
  const auto again = core::meshToBytes(*core::meshFromBytes(bytes, model));
  EXPECT_EQ(again, bytes);
}

/// A serial boxTets(2) mesh for the single-mesh tag cases.
struct SerialCase {
  meshgen::Generated gen = meshgen::boxTets(2, 2, 2);
  core::Mesh& m = *gen.mesh;
};

TEST(EncoderPins, PoolHolesAfterCoarsenAndUnghost) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = makeMesh(gen, 4);
  dist::refineParted(*pm, adapt::UniformSize(0.17));
  pm->ghostLayers(1);
  pm->unghost();
  const auto st = dist::coarsenParted(*pm, adapt::UniformSize(0.6));
  EXPECT_GT(st.collapses, 0u);
  bool holes = false;
  for (PartId p = 0; p < pm->parts(); ++p) {
    const core::Mesh& m = pm->part(p).mesh();
    for (int t = 0; t < core::kTopoCount; ++t) {
      const auto topo = static_cast<core::Topo>(t);
      holes = holes || m.slots(topo) > m.countTopo(topo);
    }
    expectReencodes(m, pm->model());
  }
  ASSERT_TRUE(holes) << "the fixture must leave free pool slots";
  std::vector<dist::partio::OrdinalMap> ords;
  for (PartId p = 0; p < pm->parts(); ++p)
    ords.push_back(dist::partio::buildOrdinals(pm->part(p).mesh()));
  std::vector<std::uint32_t> meta;
  for (PartId p = 0; p < pm->parts(); ++p)
    meta.push_back(crcOf(dist::partio::buildMeta(
        pm->part(p), ords[static_cast<std::size_t>(p)], ords)));
  const std::vector<std::uint32_t> kMesh = {0x9160C38Bu, 0x9D9A1FC3u,
                                           0x8164C3FBu, 0x716D95A5u};
  const std::vector<std::uint32_t> kMeta = {0xB06F5BBCu, 0x2AD795B8u,
                                           0x22701E54u, 0xCF6EDFFFu};
  EXPECT_EQ(meshCrcs(*pm), kMesh);
  EXPECT_EQ(meta, kMeta);
}

TEST(EncoderPins, MultiComponentTagsOnEveryDimension) {
  SerialCase c;
  common::Rng rng(23);
  for (int d = 0; d <= 3; ++d) {
    const std::string n = "d" + std::to_string(d);
    auto ti = c.m.tags().create<int>(n + ":int", 3);
    auto tl = c.m.tags().create<long>(n + ":long", 2);
    auto td = c.m.tags().create<double>(n + ":double", 4);
    int k = 0;
    for (Ent e : c.m.entities(d)) {
      // Every third entity carries nothing, every other one only some.
      if (k % 3 != 2) {
        c.m.tags().set<int>(ti, e,
                            {static_cast<int>(rng.below(1000)), -k, k});
        c.m.tags().set<double>(
            td, e, {rng.uniform(), -rng.uniform(), 0.5 * k, 1e300});
      }
      if (k % 2 == 0)
        c.m.tags().set<long>(tl, e, {static_cast<long>(rng.next()), -3L * k});
      ++k;
    }
  }
  expectReencodes(c.m, c.gen.model.get());
  EXPECT_EQ(crcOf(core::meshToBytes(c.m)), 0x4633511Au);
}

TEST(EncoderPins, ZeroLengthTagValueIsListed) {
  SerialCase c;
  const auto plain = core::meshToBytes(c.m);
  auto z = c.m.tags().create<double>("empty", 0);
  int k = 0;
  for (Ent v : c.m.entities(0))
    if (k++ % 2 == 0) c.m.tags().set<double>(z, v, {});
  const auto bytes = core::meshToBytes(c.m);
  EXPECT_GT(bytes.size(), plain.size());  // the records are written
  expectReencodes(c.m, c.gen.model.get());
  EXPECT_EQ(crcOf(bytes), 0xB564F0A2u);
}

TEST(EncoderPins, TagWithoutValuesAndForeignTypeWriteNothing) {
  SerialCase c;
  const auto plain = core::meshToBytes(c.m);
  (void)c.m.tags().create<int>("unused", 2);
  auto f = c.m.tags().create<float>("local:float", 1);
  for (Ent e : c.m.entities(3)) c.m.tags().setScalar<float>(f, e, 1.5f);
  EXPECT_EQ(core::meshToBytes(c.m), plain);
  EXPECT_EQ(crcOf(plain), 0xB7CE2D92u);
}

TEST(EncoderPins, PinnedFixtureReencodes) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = pinnedMesh(gen);
  for (PartId p = 0; p < pm->parts(); ++p)
    expectReencodes(pm->part(p).mesh(), pm->model());
}

/// --- restore pins -----------------------------------------------------------

/// Restore is handle-exact: every restored part re-encodes to the stream
/// pinned here (so pool slots, free lists and tag records come back where
/// the pinned decoder put them) and the mesh to the pinned fingerprint.
/// The fixture is FormatPins'; the partial case destroys both copies of
/// part 2's chunks, so its ghosts are dropped mesh-wide and its links to
/// part 2 are filtered. Values recorded with the restore that decoded part
/// streams in its own loop before rebuildParts took that over.
TEST(RestorePins, FullRestoreIsHandleExact) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = pinnedMesh(gen);
  const auto dir = freshDir("restore_pins_full");
  pario::checkpointImage(*pm, dir);
  auto restored =
      pario::restoreImage(dir, gen.model.get(), pario::OnLoss::kFail);
  // The very streams FormatPins pins on the checkpointed mesh.
  const std::vector<std::uint32_t> kMesh = {0x6CB9435Cu, 0xD460CB8Fu,
                                           0x6C179B5Eu, 0x50A73873u};
  EXPECT_EQ(meshCrcs(*restored), kMesh);
  EXPECT_EQ(restored->fingerprint(), 0x1BF230997611F684ull);
  fs::remove_all(dir);
}

TEST(RestorePins, PartialRestoreIsHandleExact) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = pinnedMesh(gen);
  const auto dir = freshDir("restore_pins_partial");
  pario::checkpointImage(*pm, dir);
  const auto idx = pario::loadIndex(dir);
  const auto& lost = idx.parts[2];
  for (const pario::ChunkSlot* slot : {&lost.mesh, &lost.meta})
    for (const std::uint64_t off : {slot->primary, slot->replica})
      flipByte(dir + "/" + idx.image,
               off + pario::kChunkHeaderBytes + slot->length / 2);
  pario::RestoreReport report;
  auto restored = pario::restoreImage(dir, gen.model.get(),
                                      pario::OnLoss::kPartial, &report);
  EXPECT_EQ(report.lost, std::vector<PartId>{2});
  // Part 2 comes back empty; the survivors lose their ghosts.
  const std::vector<std::uint32_t> kMesh = {0xFBBCAFFEu, 0x874E9E67u,
                                           0x49DF0020u, 0x2A995544u};
  EXPECT_EQ(meshCrcs(*restored), kMesh);
  EXPECT_EQ(restored->fingerprint(), 0x5E3AB435C56E3985ull);
  fs::remove_all(dir);
}

}  // namespace
