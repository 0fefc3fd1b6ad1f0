#ifndef PUMI_PARMA_ELASTIC_HPP
#define PUMI_PARMA_ELASTIC_HPP

/// \file elastic.hpp
/// \brief Elastic scale-OUT: grow a live partition onto newly joined ranks.
///
/// The policy half of rank join (the mechanism lives in dist/elastic.hpp).
/// elasticJoin() runs the full pipeline for "k ranks just appeared":
///
///   1. digest the mesh (dist/digest.hpp) — the conservation witness;
///   2. admit the newcomers: machine grows to N+k dense ranks, each
///      newcomer receives one fresh empty part pinned to it;
///   3. carve load onto them: heavyPartSplit with the newcomer parts
///      injected as split targets (merge phase skipped — newcomers must
///      end up non-empty, not merged away), graph-free RIB by default;
///   4. diffuse to tolerance: parma::improve shaves the carve's remainder
///      spikes down to the requested element imbalance;
///   5. gate: pm.verify() plus digest-multiset equality — one lost or
///      duplicated element throws pcu::Error(kValidation).
///
/// admitPendingJoin() is the same pipeline triggered by a consumed
/// join=K@P fault-plan token (Network::takePendingJoin), and
/// expandToIdleRanks() the restore-onto-MORE-ranks variant: no machine
/// growth, just populate + carve + diffuse (checkpoint taken at N ranks,
/// restored at n > N).

#include <cstdint>
#include <vector>

#include "dist/elastic.hpp"
#include "dist/partedmesh.hpp"
#include "part/partition.hpp"

namespace parma {

struct JoinOptions {
  /// Target element imbalance after the join: peak/mean <= 1 + tolerance.
  double tolerance = 0.10;
  /// Splitter for carving heavy parts onto newcomers. RIB (graph-free
  /// inertial bisection) by default — no adjacency build on the hot path.
  part::Method split_method = part::Method::RIB;
  /// Run the diffusive improvement stage after the carve. The carve alone
  /// lands near ceil-division imbalance; diffusion does the final shave.
  bool diffuse = true;
  /// Iteration budget for the diffusion stage.
  int max_iterations = 60;
};

struct JoinReport {
  int ranks_before = 0;
  int ranks_after = 0;
  std::vector<dist::PartId> new_parts;  ///< one per admitted rank
  int parts_split = 0;                  ///< heavy parts carved
  std::size_t elements_moved = 0;       ///< carve + diffusion migrations
  double imbalance_before = 0.0;        ///< element peak/mean at entry
  double imbalance_after = 0.0;         ///< element peak/mean at exit
  double admit_ms = 0.0;                ///< machine growth + part creation
  double split_ms = 0.0;                ///< carve + diffusion
  double total_ms = 0.0;                ///< join-to-rebalanced latency
};

/// Grow `pm` onto `k` newly joined ranks: admit, carve, diffuse, verify.
/// Throws pcu::Error(kValidation) when k < 1 or when the post-join mesh
/// fails verify() or loses/duplicates any element (geometric digest gate).
JoinReport elasticJoin(dist::PartedMesh& pm, int k,
                       const JoinOptions& opts = {});

/// Run elasticJoin for a join=K@P token the transport consumed, if any.
/// Returns a report with ranks_after == ranks_before (all zero fields)
/// when no join was pending; check `admitted`.
struct MaybeJoin {
  bool admitted = false;
  JoinReport report;
};
MaybeJoin admitPendingJoin(dist::PartedMesh& pm, const JoinOptions& opts = {});

/// Restore-onto-more-ranks expansion: give every idle machine rank one
/// fresh empty part, then carve + diffuse + verify exactly like
/// elasticJoin (no machine growth — pario::restoreImage(dir, model, n)
/// already built the n-rank machine). No-op report (admitted-style
/// all-zero new_parts) when no rank is idle.
JoinReport expandToIdleRanks(dist::PartedMesh& pm,
                             const JoinOptions& opts = {});

}  // namespace parma

#endif  // PUMI_PARMA_ELASTIC_HPP
