/// \file io_demo.cpp
/// \brief Parallel-I/O benchmark: chunked-image checkpoint vs the
/// serialized per-part-file baseline, plus the 20-seed read-repair matrix.
///
/// Two contenders write and restore the same 16-part mesh:
///
///   * baseline — the seed implementation's per-part-file discipline,
///     faithfully reproduced: parts committed one at a time, each part's
///     mesh stream written to its own file and then read back to compute
///     the MANIFEST CRC, the metadata stream written next to it, every
///     file individually made durable (temp file + fdatasync + rename).
///     Restore is two serial passes: CRC-validate every file, then read
///     the payloads again to deserialize — every byte read twice.
///   * pario — the chunked image: all 16 logical writers stream their
///     (buddy-replicated) chunks into one IMAGE concurrently, verify the
///     written extents in the same parallel shape, and pay two
///     durability barriers total (image, MANIFEST). Restore reads each
///     chunk once, CRC-gated, 16 readers concurrent.
///
/// Storage latency is modeled through the deterministic I/O fault shim
/// (iostall = 1.0: every File op sleeps a fixed iostall_ms first). That
/// makes the A/B reproducible and hardware-independent — it measures the
/// structure of the two I/O paths (op counts, serialization vs
/// concurrency, barrier counts), not the whims of a CI runner's page
/// cache. Raw un-modeled wall clock is reported alongside for reference.
///
/// The demo then replays the acceptance repair matrix: 20 seeds, each
/// damaging one randomly chosen chunk copy (bit flip on even seeds, torn
/// tail on odd), restore must read-repair to a fingerprint-identical
/// mesh.
///
/// Prints one JSON object on stdout; tools/bench_io.sh asserts the
/// headline claims (write/read/cycle speedups >= 2x, repair success_rate
/// == 1.0) and merges the numbers into BENCH_IO.json.
///
///   ./build/examples/io_demo
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/meshio.hpp"
#include "dist/pario.hpp"
#include "dist/partedmesh.hpp"
#include "dist/partio.hpp"
#include "meshgen/boxmesh.hpp"
#include "part/partition.hpp"
#include "pcu/faults.hpp"
#include "pcu/machine.hpp"

namespace fs = std::filesystem;

namespace {

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One durable file commit, legacy style: temp file, full write,
/// fdatasync, atomic rename. Routed through pario::File so the storage
/// model (iostall) applies to the baseline and to pario identically.
std::uint64_t durableWrite(const fs::path& path,
                           const std::vector<std::byte>& payload) {
  const fs::path tmp = path.string() + ".tmp";
  {
    auto f = dist::pario::File::create(tmp.string());
    f.pwriteAll(payload.data(), payload.size(), 0);
    f.sync();
  }
  fs::rename(tmp, path);
  return payload.size();
}

std::vector<std::byte> readAll(const fs::path& path) {
  auto f = dist::pario::File::openRead(path.string());
  std::vector<std::byte> buf(f.size());
  std::size_t got = 0;
  while (got < buf.size())
    got += f.preadSome(buf.data() + got, buf.size() - got, got);
  return buf;
}

struct BaselineStats {
  double write_ms = 0;
  double read_ms = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

/// The seed implementation's write path: serial per-part commits, each
/// mesh file re-read after writing to CRC it for the MANIFEST.
void baselineWrite(const dist::PartedMesh& pm, const fs::path& dir,
                   BaselineStats* st) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const int n = static_cast<int>(pm.parts());

  std::vector<dist::partio::OrdinalMap> ords(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p)
    ords[static_cast<std::size_t>(p)] =
        dist::partio::buildOrdinals(pm.part(p).mesh());

  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < n; ++p) {
    const auto& part = pm.part(p);
    const fs::path mesh_path = dir / ("part" + std::to_string(p) + ".mesh");
    st->bytes_written += durableWrite(mesh_path, core::meshToBytes(part.mesh()));
    // The legacy discipline CRC'd the file as written, not the buffer.
    const auto echo = readAll(mesh_path);
    st->bytes_read += echo.size();
    (void)pcu::faults::crc32(echo.data(), echo.size());
    st->bytes_written += durableWrite(
        dir / ("part" + std::to_string(p) + ".meta"),
        dist::partio::buildMeta(part, ords[static_cast<std::size_t>(p)],
                                ords));
  }
  std::vector<std::byte> manifest(64, std::byte{0x4d});
  st->bytes_written += durableWrite(dir / "MANIFEST", manifest);
  st->write_ms = msSince(t0);
}

/// The seed implementation's restore read path: pass 1 CRC-validates
/// every file, pass 2 reads the payloads again and deserializes the mesh
/// streams — the double read the chunked image retires.
void baselineRead(const fs::path& dir, int nparts, gmi::Model* model,
                  BaselineStats* st) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < nparts; ++p) {
    for (const char* suffix : {".mesh", ".meta"}) {
      const auto buf = readAll(dir / ("part" + std::to_string(p) + suffix));
      st->bytes_read += buf.size();
      (void)pcu::faults::crc32(buf.data(), buf.size());
    }
  }
  for (int p = 0; p < nparts; ++p) {
    auto mesh = readAll(dir / ("part" + std::to_string(p) + ".mesh"));
    auto meta = readAll(dir / ("part" + std::to_string(p) + ".meta"));
    st->bytes_read += mesh.size() + meta.size();
    auto rebuilt = core::meshFromBytes(std::move(mesh), model);
    dist::partio::EntResolver ents(1);
    ents.index(0, *rebuilt);
  }
  st->read_ms = msSince(t0);
}

}  // namespace

int main() {
  const fs::path base = fs::temp_directory_path() / "pumi_io_demo";
  fs::remove_all(base);
  fs::create_directories(base);

  // --- the workload: a 16-part tet mesh -----------------------------------
  const int nparts = 16;
  auto gen = meshgen::boxTets(10, 10, 10);
  const auto assign = part::partition(*gen.mesh, nparts, part::Method::RCB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
  const std::uint64_t fp = pm->fingerprint();

  // --- A/B under the deterministic storage model, best of 2 ---------------
  const int kStallMs = 5;
  const auto runAB = [&](bool modeled, double& bw, double& br, double& pw,
                         double& pr, BaselineStats& bs_out,
                         std::uint64_t& pbw, std::uint64_t& pbr) {
    if (modeled) {
      pcu::faults::FaultPlan plan;
      plan.seed = 1;
      plan.iostall = 1.0;  // every File op pays the modeled device latency
      plan.iostall_ms = kStallMs;
      pcu::faults::setPlan(plan);
    }
    bw = br = pw = pr = 1e30;
    const int reps = modeled ? 2 : 3;
    for (int rep = 0; rep < reps; ++rep) {
      BaselineStats bs;
      baselineWrite(*pm, base / "legacy", &bs);
      baselineRead(base / "legacy", nparts, gen.model.get(), &bs);
      bw = std::min(bw, bs.write_ms);
      br = std::min(br, bs.read_ms);
      bs_out = bs;

      const fs::path pdir = base / "pario";
      fs::remove_all(pdir);
      auto t0 = std::chrono::steady_clock::now();
      const auto ws = dist::pario::checkpointImage(*pm, pdir.string());
      pw = std::min(pw, msSince(t0));
      pbw = ws.bytes;

      t0 = std::chrono::steady_clock::now();
      dist::pario::RestoreReport rr;
      auto restored = dist::pario::restoreImage(
          pdir.string(), gen.model.get(), dist::pario::OnLoss::kFail, &rr);
      pr = std::min(pr, msSince(t0));
      pbr = rr.bytes_read;
      if (restored->fingerprint() != fp) {
        std::cerr << "restore fingerprint mismatch\n";
        std::exit(1);
      }
    }
    if (modeled) pcu::faults::clearPlan();
  };

  double base_write = 0, base_read = 0, pario_write = 0, pario_read = 0;
  BaselineStats bs{};
  std::uint64_t pario_bytes_written = 0, pario_bytes_read = 0;
  runAB(true, base_write, base_read, pario_write, pario_read, bs,
        pario_bytes_written, pario_bytes_read);

  double raw_bw = 0, raw_br = 0, raw_pw = 0, raw_pr = 0;
  BaselineStats raw_bs{};
  std::uint64_t dummy_w = 0, dummy_r = 0;
  runAB(false, raw_bw, raw_br, raw_pw, raw_pr, raw_bs, dummy_w, dummy_r);

  // --- the 20-seed single-copy damage repair matrix -----------------------
  int repair_ok = 0;
  const int kSeeds = 20;
  std::uint64_t chunks_repaired = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const fs::path dir = base / ("repair" + std::to_string(seed));
    fs::remove_all(dir);
    dist::pario::checkpointImage(*pm, dir.string());
    const auto idx = dist::pario::loadIndex(dir.string());

    // Pick one chunk copy and damage it: even seeds flip a payload byte,
    // odd seeds tear the copy's tail off.
    common::Rng rng(0x10deedull + static_cast<std::uint64_t>(seed));
    const int victim = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(nparts)));
    const auto& slots = idx.parts[static_cast<std::size_t>(victim)];
    const auto& slot = rng.below(2) == 0 ? slots.mesh : slots.meta;
    const std::uint64_t off = rng.below(2) == 0 ? slot.primary : slot.replica;
    const fs::path img = dir / idx.image;
    std::fstream f(img, std::ios::in | std::ios::out | std::ios::binary);
    if (seed % 2 == 0) {
      const std::uint64_t at = off + dist::pario::kChunkHeaderBytes +
                               rng.below(slot.length > 0 ? slot.length : 1);
      f.seekg(static_cast<std::streamoff>(at));
      char c = 0;
      f.get(c);
      f.seekp(static_cast<std::streamoff>(at));
      f.put(static_cast<char>(c ^ 0x5A));
    } else {
      const std::uint64_t tail =
          off + (dist::pario::kChunkHeaderBytes + slot.length) / 2;
      const std::uint64_t end =
          off + dist::pario::kChunkHeaderBytes + slot.length;
      f.seekp(static_cast<std::streamoff>(tail));
      for (std::uint64_t i = tail; i < end; ++i) f.put('\0');
    }
    f.close();

    dist::pario::RestoreReport rr;
    try {
      auto restored = dist::pario::restoreImage(
          dir.string(), gen.model.get(), dist::pario::OnLoss::kFail, &rr);
      if (restored->fingerprint() == fp && rr.lost.empty()) {
        ++repair_ok;
        chunks_repaired += rr.chunks_repaired;
      }
    } catch (const std::exception& e) {
      std::cerr << "seed " << seed << ": " << e.what() << "\n";
    }
  }

  fs::remove_all(base);

  // --- report -------------------------------------------------------------
  const double base_cycle = base_write + base_read;
  const double pario_cycle = pario_write + pario_read;
  std::printf("{\n");
  std::printf("  \"parts\": %d,\n", nparts);
  std::printf("  \"storage_model\": {\"iostall_ms_per_op\": %d, "
              "\"note\": \"deterministic per-op device latency via the "
              "I/O fault shim; raw numbers below are unmodeled\"},\n",
              kStallMs);
  std::printf("  \"write\": {\"baseline_ms\": %.3f, \"pario_ms\": %.3f, "
              "\"speedup\": %.2f},\n",
              base_write, pario_write, base_write / pario_write);
  std::printf("  \"read\": {\"baseline_ms\": %.3f, \"pario_ms\": %.3f, "
              "\"speedup\": %.2f},\n",
              base_read, pario_read, base_read / pario_read);
  std::printf("  \"cycle\": {\"baseline_ms\": %.3f, \"pario_ms\": %.3f, "
              "\"speedup\": %.2f},\n",
              base_cycle, pario_cycle, base_cycle / pario_cycle);
  std::printf("  \"raw\": {\"baseline_write_ms\": %.3f, "
              "\"pario_write_ms\": %.3f, \"baseline_read_ms\": %.3f, "
              "\"pario_read_ms\": %.3f},\n",
              raw_bw, raw_pw, raw_br, raw_pr);
  std::printf("  \"bytes\": {\"baseline_written\": %llu, "
              "\"pario_written\": %llu, \"baseline_read\": %llu, "
              "\"pario_read\": %llu},\n",
              static_cast<unsigned long long>(bs.bytes_written),
              static_cast<unsigned long long>(pario_bytes_written),
              static_cast<unsigned long long>(bs.bytes_read),
              static_cast<unsigned long long>(pario_bytes_read));
  std::printf("  \"durability_barriers\": {\"baseline\": %d, \"pario\": 2},\n",
              2 * nparts + 1);
  std::printf("  \"repair\": {\"seeds\": %d, \"successes\": %d, "
              "\"chunks_repaired\": %llu, \"success_rate\": %.2f}\n",
              kSeeds, repair_ok,
              static_cast<unsigned long long>(chunks_repaired),
              static_cast<double>(repair_ok) / kSeeds);
  std::printf("}\n");
  return repair_ok == kSeeds ? 0 : 1;
}
