#ifndef PUMI_PARMA_BALANCE_HPP
#define PUMI_PARMA_BALANCE_HPP

/// \file balance.hpp
/// \brief One-call dynamic load balancing: heavy part splitting for the
/// spikes diffusion cannot reach, multi-criteria diffusive improvement for
/// the rest, iterated until the application tolerance holds (the paper's
/// Sec. III procedures "work independently of, or in conjunction with",
/// each other — this is the conjunction).

#include <cstdint>

#include "dist/failover.hpp"
#include "parma/heavysplit.hpp"
#include "parma/improve.hpp"

namespace parma {

struct BalanceOptions {
  double tolerance = 0.05;
  int max_rounds = 3;       ///< heavy-split + diffusion rounds
  /// How many times a faulted round is re-planned and re-run (a round is
  /// one transaction, rolled back to its exact start state, so the retry
  /// plans from that state) before the round is skipped and counted in
  /// rounds_faulted.
  int round_retries = 2;
  ImproveOptions improve{}; ///< per-round diffusion settings
  HeavySplitOptions split{};
};

struct BalanceReport {
  int rounds = 0;
  double initial_imbalance = 0.0;  ///< of the first priority type
  double final_imbalance = 0.0;
  bool converged = false;
  std::size_t elements_migrated = 0;
  /// Rounds whose migrations aborted under a fault (pcu::Error). Each
  /// aborted round rolled the mesh back transactionally and was skipped;
  /// balancing degrades gracefully instead of corrupting the mesh.
  int rounds_faulted = 0;
  /// Faulted rounds that were re-planned and re-run in place (they only
  /// count in rounds_faulted once every retry was also lost).
  int rounds_retried = 0;
  std::string last_error;  ///< what() of the most recent aborted round
  /// Transport traffic this balance run generated, from the Network stats
  /// delta: payloads the rounds posted (logical) vs coalesced messages
  /// that actually crossed the transport (physical ≤ logical).
  std::uint64_t messages_logical = 0;
  std::uint64_t messages_physical = 0;
  /// Rank-failure context (non-zero only via balanceAfterEvacuation):
  /// ranks declared dead before this balance and the entities their
  /// evacuated parts brought onto the survivors.
  int ranks_lost = 0;
  std::size_t entities_adopted = 0;
};

/// Balance `pm` for `priority` (e.g. "Vtx>Rgn"); alternates heavy part
/// splitting on the element balance with priority-driven diffusion until
/// every priority type is within tolerance or rounds are exhausted.
///
/// A round aborted by pcu::ErrorCode::kRankFailed is never retried or
/// absorbed: the failure is not transient and the mesh cannot communicate
/// until the dead rank's parts are evacuated, so the error propagates to
/// the caller (who runs dist::failover::evacuate, then
/// balanceAfterEvacuation).
BalanceReport balance(dist::PartedMesh& pm, const std::string& priority,
                      const BalanceOptions& opts = {});

/// Post-evacuation repair: a dead rank's parts were just adopted by their
/// buddy ranks (dist::failover::evacuate), which concentrates their load
/// on the buddies. Re-balances `pm` and stamps the report with the
/// incident context (ranks_lost, entities_adopted) from `evac`.
BalanceReport balanceAfterEvacuation(
    dist::PartedMesh& pm, const std::string& priority,
    const dist::failover::EvacuationReport& evac,
    const BalanceOptions& opts = {});

}  // namespace parma

#endif  // PUMI_PARMA_BALANCE_HPP
