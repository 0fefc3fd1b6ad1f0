#include "parma/balance.hpp"

#include "parma/metrics.hpp"
#include "pcu/error.hpp"
#include "pcu/trace.hpp"

namespace parma {

BalanceReport balance(dist::PartedMesh& pm, const std::string& priority,
                      const BalanceOptions& opts) {
  const Priority parsed = parsePriority(priority);
  const int first_dim = parsed.levels.front().front();

  pcu::trace::Scope trace_scope("parma:balance");
  BalanceReport report;
  report.initial_imbalance = entityBalance(pm, first_dim).imbalance;
  const pcu::CommStats net_before = pm.network().stats();

  ImproveOptions improve_opts = opts.improve;
  improve_opts.tolerance = opts.tolerance;
  HeavySplitOptions split_opts = opts.split;
  split_opts.tolerance = opts.tolerance;

  for (int round = 0; round < opts.max_rounds; ++round) {
    pcu::trace::Scope round_scope("parma:balance-round");
    // A round is one transaction, and its migrations join it: the entry
    // audit repairs a flip planted at the previous commit point before the
    // round reads part state, and the exit seal is the round's one commit
    // point. A faulted round rolls back to the exact round-start state, so
    // re-plan and re-run it up to round_retries times; only once every retry
    // is also lost does the round count as faulted and balancing move on.
    bool round_ok = false;
    for (int tries = 0; tries <= opts.round_retries; ++tries) {
      try {
        std::size_t moved = 0;
        pm.transaction("parma:round", [&] {
          const auto split_report = heavyPartSplit(pm, split_opts);
          const auto improved = improve(pm, parsed, improve_opts);
          moved = split_report.elements_moved + improved.totalMigrated();
        });
        report.elements_migrated += moved;
        round_ok = true;
        break;
      } catch (const pcu::Error& e) {
        // A dead rank is not a transient fault: nothing can communicate
        // with its parts until they are evacuated, so retrying the round
        // would only re-hit the transport's dead-rank gate. Propagate for
        // the caller's evacuate + balanceAfterEvacuation sequence.
        // Unrepairable corruption (kIntegrity) is equally permanent: the
        // armor already exhausted its repair ladder.
        if (e.code() == pcu::ErrorCode::kRankFailed ||
            e.code() == pcu::ErrorCode::kIntegrity)
          throw;
        report.last_error = e.what();
        if (tries < opts.round_retries) report.rounds_retried += 1;
      }
    }
    report.rounds = round + 1;
    if (!round_ok) {
      report.rounds_faulted += 1;
      continue;
    }
    bool all_ok = true;
    for (int d : parsed.allDims())
      all_ok = all_ok &&
               entityBalance(pm, d).imbalance <= 1.0 + opts.tolerance + 1e-12;
    if (all_ok) {
      report.converged = true;
      break;
    }
  }
  report.final_imbalance = entityBalance(pm, first_dim).imbalance;
  const pcu::CommStats& net_after = pm.network().stats();
  report.messages_logical = net_after.messages_sent - net_before.messages_sent;
  report.messages_physical =
      net_after.physical_messages - net_before.physical_messages;
  return report;
}

BalanceReport balanceAfterEvacuation(
    dist::PartedMesh& pm, const std::string& priority,
    const dist::failover::EvacuationReport& evac,
    const BalanceOptions& opts) {
  pcu::trace::Scope trace_scope("parma:balance-after-evacuation");
  BalanceReport report = balance(pm, priority, opts);
  report.ranks_lost = static_cast<int>(evac.ranks_lost.size());
  report.entities_adopted = evac.entities_adopted;
  return report;
}

}  // namespace parma
