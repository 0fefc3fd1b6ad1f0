#ifndef PUMI_PCU_FAILURE_HPP
#define PUMI_PCU_FAILURE_HPP

/// \file failure.hpp
/// \brief Process-global rank-failure and elastic-join counters.
///
/// Rank failures and joins are scheduled by the fault plan's kill=/hang=/
/// join= tokens and fire at dist::Network phase boundaries: the Network
/// declares a killed or hung rank dead (noteSuspicion) and grows its
/// machine when joiners are admitted (noteGrow). These counters are what
/// failover::evacuate reports as detection latency and what the fd:* trace
/// counters carry into the per-phase report.

#include <cstdint>

namespace pcu::failure {

/// Process-global failure-detection counters (relaxed atomics, same
/// contract as arq::Stats).
struct Stats {
  std::uint64_t suspicions = 0;     ///< ranks declared dead
  std::uint64_t grows = 0;          ///< elastic machine expansions
  std::uint64_t ranks_joined = 0;   ///< newcomer ranks admitted by grows
  std::int64_t last_detect_us = 0;  ///< latest silence span at detection
  std::int64_t max_detect_us = 0;   ///< worst silence span at detection
};

Stats stats();
void resetStats();

/// Record one rank death; `latency_us` is how long the rank had been
/// silent when it was declared dead (the detection latency). Also emits
/// the fd:suspicions and fd:suspicion_latency_us trace counters.
void noteSuspicion(std::int64_t latency_us);
/// Record one elastic machine expansion that admitted `ranks` newcomers;
/// emits the fd:grow_events and fd:ranks_joined trace counters.
void noteGrow(int ranks);

}  // namespace pcu::failure

#endif  // PUMI_PCU_FAILURE_HPP
