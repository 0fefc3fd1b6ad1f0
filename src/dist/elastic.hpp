#ifndef PUMI_DIST_ELASTIC_HPP
#define PUMI_DIST_ELASTIC_HPP

/// \file elastic.hpp
/// \brief Elastic scale-out machinery: admit newly joined ranks.
///
/// The inverse of failover: where evacuate() re-homes a dead rank's parts
/// onto fewer ranks, this layer expands a live mesh onto *more*. A
/// join=K@P fault-plan token (consumed at a transport phase boundary,
/// Network::pendingJoin) or an explicit call announces K new ranks; the
/// machine model grows densely (existing ranks keep their numbers,
/// newcomers take the next K), and each newcomer receives one fresh empty
/// part pinned to it. Carving actual load onto those parts is the
/// balancing layer's job (parma's elastic join) — this header is pure
/// mechanism, no policy.

#include <vector>

#include "dist/partedmesh.hpp"

namespace dist::elastic {

/// What one admission did.
struct AdmitReport {
  int ranks_before = 0;
  int ranks_after = 0;
  std::vector<PartId> new_parts;  ///< one fresh empty part per newcomer rank
};

/// Admit `k` new ranks into `pm`'s machine: freeze the current part->rank
/// pinning (the block-layout fallback must not shift under existing
/// parts), grow the machine to totalCores()+k (Network::growRanks), and
/// give every rank that hosts no part one fresh empty part pinned to it.
/// Throws pcu::Error(kValidation) when k < 1. The mesh's element content
/// is untouched — new parts are empty until the balancer carves into them.
AdmitReport admitRanks(PartedMesh& pm, int k);

/// Give every machine rank that currently hosts no part one fresh empty
/// part pinned to it (no machine growth). This is admitRanks' second half,
/// exposed for restore-onto-more-ranks: pario::restoreImage(dir, model,
/// n) with n greater than the checkpoint's part count leaves ranks idle
/// until this populates them. Returns the new parts (empty when no rank
/// was idle).
std::vector<PartId> addPartsOnIdleRanks(PartedMesh& pm);

/// Admit any join=K@P knock the transport consumed (Network::pendingJoin):
/// returns the admission when one was pending, nothing otherwise.
struct MaybeAdmit {
  bool admitted = false;
  AdmitReport report;
};
MaybeAdmit admitPendingJoin(PartedMesh& pm);

}  // namespace dist::elastic

#endif  // PUMI_DIST_ELASTIC_HPP
