/// \file chaos_checkpoint.cpp
/// \brief CI damage injector: writes a real checkpoint, then vandalizes it
/// in a named, deterministic way so the fsck exit-code contract (0 intact /
/// 1 lost / 2 malformed) can be asserted end to end against genuine bytes.
///
/// Usage:
///   chaos_checkpoint <mode> <dir> [seed]
///
/// Modes (what a later `fsck_checkpoint <dir>` must conclude):
///   clean       checkpoint a mesh, damage nothing           -> exit 0
///   repairable  flip one byte in ONE copy of one chunk      -> exit 0,
///               chunks_repaired >= 1 (the buddy replica heals it)
///   lost        flip a byte in BOTH copies of one chunk     -> exit 1,
///               lost_parts names the victim
///   malformed   truncate the MANIFEST mid-record            -> exit 2
///
/// Prints a one-object JSON description of the damage on stdout so CI can
/// cross-check fsck's report (victim part, chunk kind, byte offsets). The
/// victim choice is pure in the seed: the same invocation always damages
/// the same bytes.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "dist/pario.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "part/partition.hpp"
#include "pcu/error.hpp"
#include "pcu/machine.hpp"

namespace {

namespace pario = dist::pario;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s clean|repairable|lost|malformed <dir> [seed]\n",
               argv0);
}

void flipByte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) throw pcu::Error(pcu::ErrorCode::kValidation, -1,
                           "chaos_checkpoint: cannot open " + path);
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    usage(argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  const std::string dir = argv[2];
  const std::uint64_t seed = argc == 4 ? std::strtoull(argv[3], nullptr, 10)
                                       : 7;
  if (mode != "clean" && mode != "repairable" && mode != "lost" &&
      mode != "malformed") {
    usage(argv[0]);
    return 2;
  }

  try {
    // A real mesh, really partitioned, really checkpointed: the damage
    // lands in bytes the restore path genuinely depends on.
    const int nparts = 4;
    auto gen = meshgen::boxTris(6, 6);
    const auto assign =
        part::partition(*gen.mesh, nparts, part::Method::RCB);
    auto pm = dist::PartedMesh::distribute(
        *gen.mesh, gen.model.get(), assign,
        dist::PartMap(nparts, pcu::Machine::flat(nparts)));
    std::filesystem::remove_all(dir);
    pario::checkpointImage(*pm, dir);

    const auto idx = pario::loadIndex(dir);
    const std::string image = dir + "/" + idx.image;
    const int victim = static_cast<int>(seed % nparts);
    const auto& slot =
        (seed / nparts) % 2 == 0
            ? idx.parts[static_cast<std::size_t>(victim)].mesh
            : idx.parts[static_cast<std::size_t>(victim)].meta;
    const char* kind = (seed / nparts) % 2 == 0 ? "mesh" : "meta";
    const std::uint64_t payload_at =
        pario::kChunkHeaderBytes + (slot.length > 0 ? seed % slot.length : 0);

    std::uint64_t damaged_primary = 0;
    std::uint64_t damaged_replica = 0;
    if (mode == "repairable") {
      damaged_primary = slot.primary + payload_at;
      flipByte(image, damaged_primary);
    } else if (mode == "lost") {
      damaged_primary = slot.primary + payload_at;
      damaged_replica = slot.replica + payload_at;
      flipByte(image, damaged_primary);
      flipByte(image, damaged_replica);
    } else if (mode == "malformed") {
      const auto manifest = dir + "/MANIFEST";
      const auto size = std::filesystem::file_size(manifest);
      std::filesystem::resize_file(manifest, size / 2);
    }

    std::printf("{\n");
    std::printf("  \"dir\": \"%s\",\n", dir.c_str());
    std::printf("  \"mode\": \"%s\",\n", mode.c_str());
    std::printf("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(seed));
    std::printf("  \"parts\": %d,\n", nparts);
    std::printf("  \"victim_part\": %d,\n",
                mode == "clean" || mode == "malformed" ? -1 : victim);
    std::printf("  \"victim_chunk\": \"%s\",\n", kind);
    std::printf("  \"damaged_offsets\": [");
    if (damaged_primary != 0)
      std::printf("%llu", static_cast<unsigned long long>(damaged_primary));
    if (damaged_replica != 0)
      std::printf(", %llu", static_cast<unsigned long long>(damaged_replica));
    std::printf("]\n");
    std::printf("}\n");
    return 0;
  } catch (const pcu::Error& e) {
    std::fprintf(stderr, "chaos_checkpoint: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_checkpoint: %s\n", e.what());
    return 2;
  }
}
