#ifndef PUMI_PCU_PHASED_HPP
#define PUMI_PCU_PHASED_HPP

/// \file phased.hpp
/// \brief Phased (bulk-synchronous) neighbour exchange, PCU's signature op.
///
/// In one phase every rank posts zero or more messages to arbitrary
/// destinations, then receives exactly the messages addressed to it. All
/// PUMI distributed-mesh operations are built from a sequence of such
/// phases.
///
/// Two scalability properties of the paper's PCU are reproduced here:
///  - all payloads bound for the same peer are coalesced into one physical
///    message per (rank, peer) pair and split back into logical messages on
///    receipt, so per-message overhead (mailbox lock, allocation, trace
///    record) is paid per *neighbour*, not per payload;
///  - the number of inbound messages is agreed on with a sparse
///    reduce-scatter over (destination, count) contributions, so per-phase
///    collective traffic is proportional to the number of actual neighbour
///    pairs (times log P), not to a size-P vector per rank.

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pcu/buffer.hpp"
#include "pcu/comm.hpp"
#include "pcu/trace.hpp"

namespace pcu {

/// Tag used by phased exchanges; phases are separated by the collective
/// count agreement, so one tag suffices.
inline constexpr int kPhasedTag = 1000;

/// Options for one phased exchange. Collective: every rank of the comm must
/// pass the same values.
struct PhasedOptions {
  /// Pack all payloads for the same destination into one physical message
  /// (length-prefixed sub-messages). Receivers always get individual
  /// Messages back, so callers are unaffected either way; `false` keeps the
  /// one-mailbox-push-per-payload behaviour for A/B comparison.
  bool coalesce = true;
};

namespace detail {

/// Payloads for one destination, accumulated in posting order.
struct PhasedSegment {
  int dest = 0;
  OutBuffer bytes;               ///< concatenated [u32 length][payload] records
  std::uint64_t count = 0;       ///< logical sub-messages packed
  std::uint64_t logical_bytes = 0;  ///< payload bytes, excluding prefixes
};

/// Split one coalesced segment back into logical Messages, tracing each
/// sub-message so the trace report stays in logical units.
inline void unpackSegment(int self, Message physical,
                          std::vector<Message>& out) {
  InBuffer body = std::move(physical.body);
  while (!body.done()) {
    const auto len = body.unpack<std::uint32_t>();
    Message m;
    m.source = physical.source;
    m.tag = physical.tag;
    m.body = InBuffer(body.unpackRaw(len));
    if (trace::enabled())
      trace::recvAs(self, m.source, static_cast<std::int64_t>(m.body.size()),
                    "pcu");
    out.push_back(std::move(m));
  }
}

}  // namespace detail

/// Post `outgoing` (destination, payload) pairs and receive every message
/// addressed to this rank in the same phase. Every rank of the comm must
/// call this (possibly with an empty list). Received messages carry their
/// source rank and arrive in arbitrary source order.
inline std::vector<Message> phasedExchange(
    Comm& comm, std::vector<std::pair<int, OutBuffer>> outgoing,
    PhasedOptions options = {}) {
  trace::Scope scope("pcu:phasedExchange", comm.rank());
  // One pass over the payloads builds both the per-destination coalesced
  // segments and the sparse (destination, physical count) contributions the
  // termination agreement needs.
  std::vector<detail::PhasedSegment> segments;
  std::unordered_map<int, std::size_t> segment_of;
  for (auto& [dest, buf] : outgoing) {
    auto [it, fresh] = segment_of.try_emplace(dest, segments.size());
    if (fresh) {
      segments.emplace_back();
      segments.back().dest = dest;
    }
    auto& seg = segments[it->second];
    seg.count += 1;
    seg.logical_bytes += buf.size();
    if (options.coalesce) {
      // Logical trace attribution happens per payload at pack time; the
      // physical segment sent below carries no trace record of its own, so
      // the pairwise byte-conservation invariant holds in logical units.
      if (trace::enabled())
        trace::sendAs(comm.rank(), dest,
                      static_cast<std::int64_t>(buf.size()), "pcu");
      seg.bytes.pack<std::uint32_t>(static_cast<std::uint32_t>(buf.size()));
      seg.bytes.packBytes(buf.data(), buf.size());
      buf.clear();
    }
  }
  // Agree on how many *physical* messages each rank will receive. Sparse:
  // traffic scales with neighbour pairs, not with comm size.
  std::vector<std::pair<int, long>> contributions;
  contributions.reserve(segments.size());
  for (const auto& seg : segments)
    contributions.emplace_back(
        seg.dest, options.coalesce ? 1L : static_cast<long>(seg.count));
  const long expected = comm.reduceScatterSum(contributions);
  comm.reserveInbound(static_cast<std::size_t>(expected));

  if (options.coalesce) {
    for (auto& seg : segments)
      comm.sendCoalesced(seg.dest, kPhasedTag, std::move(seg.bytes).take(),
                         seg.count, seg.logical_bytes);
  } else {
    for (auto& [dest, buf] : outgoing)
      comm.send(dest, kPhasedTag, std::move(buf).take());
  }
  std::vector<Message> received;
  received.reserve(static_cast<std::size_t>(expected));
  for (long i = 0; i < expected; ++i) {
    if (options.coalesce) {
      detail::unpackSegment(comm.rank(),
                            comm.recvUntraced(kAnySource, kPhasedTag),
                            received);
    } else {
      received.push_back(comm.recv(kAnySource, kPhasedTag));
    }
  }
  return received;
}

}  // namespace pcu

#endif  // PUMI_PCU_PHASED_HPP
