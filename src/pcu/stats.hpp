#ifndef PUMI_PCU_STATS_HPP
#define PUMI_PCU_STATS_HPP

/// \file stats.hpp
/// \brief Aggregation of pcu::trace events into the per-phase, per-rank
/// report the paper's performance-measurement component calls for: for
/// every traced phase the min/max/mean wall-time across ranks and the
/// imbalance (max/mean), and for every message channel the message and
/// byte volume, total and per rank pair.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "pcu/trace.hpp"

namespace pcu {

/// Wall-time statistics of one phase across the ranks that recorded it.
/// "Rank" here is whatever the events were attributed to: comm ranks under
/// pcu::run, part ids under dist::Network, -1 for the driver thread.
struct PhaseStat {
  std::string name;
  int ranks = 0;                ///< distinct ranks with at least one scope
  std::uint64_t calls = 0;      ///< total begin/end pairs
  double total_seconds = 0.0;   ///< summed across ranks
  double min_seconds = 0.0;     ///< lightest rank's total
  double max_seconds = 0.0;     ///< heaviest rank's total
  double mean_seconds = 0.0;    ///< total / ranks
  double imbalance = 1.0;       ///< max / mean (1.0 = perfectly balanced)
};

/// Message volume of one channel ("pcu", "net", ...), whole run.
struct ChannelStat {
  std::string channel;
  std::uint64_t send_messages = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t recv_messages = 0;
  std::uint64_t recv_bytes = 0;
};

/// Message volume between one ordered (src, dst) rank pair on one channel.
/// In a complete (drained) trace, send totals recorded at src equal recv
/// totals recorded at dst — the consistency test_trace asserts.
struct PairStat {
  std::string channel;
  int src = -1;
  int dst = -1;
  std::uint64_t send_messages = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t recv_messages = 0;
  std::uint64_t recv_bytes = 0;
};

/// Aggregate of one named counter series (trace::counter), whole run —
/// e.g. the rank-failure counters fd:suspicions / fd:suspicion_latency_us
/// (dist::Network declaring a rank dead) and fd:grow_events /
/// fd:ranks_joined (dist::Network admitting joiners).
struct CounterStat {
  std::string name;
  std::uint64_t samples = 0;
  std::int64_t last = 0;  ///< final recorded value (totals report this)
  std::int64_t min = 0;
  std::int64_t max = 0;
};

struct TraceReport {
  std::vector<PhaseStat> phases;      ///< sorted by max_seconds, descending
  std::vector<ChannelStat> channels;  ///< sorted by channel name
  std::vector<PairStat> pairs;        ///< sorted by (channel, src, dst)
  std::vector<CounterStat> counters;  ///< sorted by counter name
};

/// Aggregate a merged event stream. Begin/end events are matched per
/// recording thread (scopes never straddle threads); an unmatched begin at
/// the end of a thread's stream is ignored.
TraceReport buildTraceReport(const trace::Merged& merged);

/// Aggregate only the events stamped with `tenant` (trace::TenantScope /
/// trace::setThreadTenant) — the multi-tenant service's per-tenant view.
/// Events with no tenant label are excluded; an unknown tenant yields an
/// empty report.
TraceReport buildTraceReport(const trace::Merged& merged,
                             std::string_view tenant);

/// Aggregate the live trace buffers (quiescent threads only).
TraceReport buildTraceReport();

/// Print the per-phase table and the per-channel volume table.
void printTraceReport(const TraceReport& report, std::ostream& os);
void printTraceReport(const TraceReport& report);

}  // namespace pcu

#endif  // PUMI_PCU_STATS_HPP
