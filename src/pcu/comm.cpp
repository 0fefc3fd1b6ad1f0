#include "pcu/comm.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>
#include <tuple>

#include "pcu/arq.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"
#include "pcu/trace.hpp"

namespace pcu {
namespace detail {

void Mailbox::push(int source, int tag, std::vector<std::byte> bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inbox_.push_back(Raw{source, tag, std::move(bytes)});
  }
  cv_.notify_one();
}

void Mailbox::pushMany(std::vector<Raw> batch) {
  if (batch.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (inbox_.empty()) {
      inbox_ = std::move(batch);
    } else {
      inbox_.reserve(inbox_.size() + batch.size());
      for (auto& m : batch) inbox_.push_back(std::move(m));
    }
  }
  cv_.notify_one();
}

void Mailbox::reserveInbound(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  inbox_.reserve(inbox_.size() + n);
}

bool Mailbox::takeLocal(int source, int tag, Raw& out) {
  auto it = std::find_if(local_.begin(), local_.end(),
                         [&](const Raw& s) { return matches(s, source, tag); });
  if (it == local_.end()) return false;
  out = std::move(*it);
  local_.erase(it);
  return true;
}

bool Mailbox::pop(int source, int tag, long timeout_us, Raw& out) {
  // Fast path: the consumer-private queue already holds a match — no lock.
  if (takeLocal(source, tag, out)) return true;
  std::unique_lock<std::mutex> lock(mutex_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  for (;;) {
    if (!inbox_.empty()) {
      // Drain the whole inbox in one swap; scan it outside the lock.
      for (auto& m : inbox_) local_.push_back(std::move(m));
      inbox_.clear();
      lock.unlock();
      if (takeLocal(source, tag, out)) return true;
      lock.lock();
      continue;  // inbox may have refilled while unlocked
    }
    if (timeout_us <= 0) {
      cv_.wait(lock);
    } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return false;
    }
  }
}

bool Mailbox::probe(int source, int tag) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& m : inbox_) local_.push_back(std::move(m));
    inbox_.clear();
  }
  return std::any_of(local_.begin(), local_.end(),
                     [&](const Raw& s) { return matches(s, source, tag); });
}

}  // namespace detail

Group::Group(int size, Machine machine)
    : size_(size),
      machine_(machine),
      domain_(faults::defaultDomain()),
      boxes_(size) {
  assert(size > 0);
  // Default machine: all ranks on one node (pure shared memory).
  if (machine_.totalCores() < size_) machine_ = Machine::singleNode(size_);
}

Comm::Comm(std::shared_ptr<Group> group, int rank)
    : group_(std::move(group)), rank_(rank) {
  assert(rank_ >= 0 && rank_ < group_->size());
}

void Comm::send(int dest, int tag, const OutBuffer& buf) {
  assert(tag >= 0 && "negative tags are reserved for collectives");
  send(dest, tag, std::vector<std::byte>(buf.storage()));
}

void Comm::send(int dest, int tag, std::vector<std::byte> bytes) {
  assert(tag >= 0 && "negative tags are reserved for collectives");
  if (group_->domain_->framingEnabled()) {
    sendFramed(dest, tag, std::move(bytes));
    return;
  }
  sendInternal(dest, tag, std::move(bytes));
}

void Comm::accountSend(int dest, std::size_t payload_bytes) {
  stats_.messages_sent += 1;
  stats_.bytes_sent += payload_bytes;
  stats_.physical_messages += 1;
  stats_.physical_bytes += payload_bytes;
  if (sameNode(dest)) {
    stats_.on_node_messages += 1;
    stats_.on_node_bytes += payload_bytes;
  } else {
    stats_.off_node_messages += 1;
    stats_.off_node_bytes += payload_bytes;
  }
  if (trace::enabled())
    trace::sendAs(rank_, dest, static_cast<std::int64_t>(payload_bytes),
                  "pcu");
}

void Comm::accountSendCoalesced(int dest, std::uint64_t logical_count,
                                std::uint64_t logical_bytes,
                                std::size_t physical_bytes) {
  stats_.messages_sent += logical_count;
  stats_.bytes_sent += logical_bytes;
  stats_.physical_messages += 1;
  stats_.physical_bytes += physical_bytes;
  if (sameNode(dest)) {
    stats_.on_node_messages += logical_count;
    stats_.on_node_bytes += logical_bytes;
  } else {
    stats_.off_node_messages += logical_count;
    stats_.off_node_bytes += logical_bytes;
  }
  // No trace event here: the caller attributes logical payloads itself so
  // the trace report stays in logical units (byte conservation per pair).
}

void Comm::push(int dest, int tag, std::vector<std::byte> bytes) {
  assert(dest >= 0 && dest < size());
  group_->boxes_[dest].push(rank_, tag, std::move(bytes));
}

void Comm::sendInternal(int dest, int tag, std::vector<std::byte> bytes) {
  accountSend(dest, bytes.size());
  push(dest, tag, std::move(bytes));
}

void Comm::sendFramed(int dest, int tag, std::vector<std::byte> payload) {
  // Stats and trace account the payload (what the application sent), so
  // byte-conservation invariants hold whether or not framing is active.
  accountSend(dest, payload.size());
  postFramed(dest, tag, std::move(payload));
}

void Comm::postFramed(int dest, int tag, std::vector<std::byte> payload) {
  const std::uint64_t seq = send_seq_[channelKey(dest, tag)]++;
  auto framed = faults::frame(seq, std::move(payload));
  const bool reliable = group_->domain_->reliableEnabled();
  const faults::Action action = group_->domain_->decide(rank_, dest, tag, seq);
  if (reliable) {
    // Deposit the clean frame before the fault can touch it: the receiver
    // pulls from here on loss/corruption and prunes on delivery. A frame
    // about to be pushed intact is no candidate for the receiver's RTO
    // scan, or a scan racing this push would pull a spurious copy.
    group_->arq_store_.store(rank_, dest, tag, seq,
                             std::vector<std::byte>(framed),
                             faults::mayLose(action));
    arq::noteStored();
  }
  switch (action) {
    case faults::Action::kDeliver:
      break;
    case faults::Action::kCorrupt:
      faults::corruptFrame(framed, rank_, dest, tag, seq);
      break;
    case faults::Action::kDrop:
      if (reliable) {
        // Leave a loss beacon so the receiver recovers immediately from
        // the store instead of waiting out its RTO timer.
        push(dest, tag, faults::lossBeacon(seq));
        arq::noteBeacon();
      }
      return;  // the network ate it; the receiver's watchdog will notice
    case faults::Action::kDuplicate:
      push(dest, tag, std::vector<std::byte>(framed));
      break;
    case faults::Action::kDelay:
      delayed_.push_back(Delayed{dest, tag, std::move(framed)});
      return;  // held back; flushed after later traffic -> reordering
  }
  push(dest, tag, std::move(framed));
}

void Comm::flushDelayed() {
  for (auto& d : delayed_) push(d.dest, d.tag, std::move(d.bytes));
  delayed_.clear();
}

void Comm::sendCoalesced(int dest, int tag, std::vector<std::byte> segment,
                         std::uint64_t logical_count,
                         std::uint64_t logical_bytes) {
  assert(tag >= 0 && "negative tags are reserved for collectives");
  accountSendCoalesced(dest, logical_count, logical_bytes, segment.size());
  if (group_->domain_->framingEnabled()) {
    postFramed(dest, tag, std::move(segment));
    return;
  }
  push(dest, tag, std::move(segment));
}

void Comm::reserveInbound(std::size_t n) {
  group_->boxes_[rank_].reserveInbound(n);
}

bool Comm::popWatchdog(int source, int tag,
                       std::chrono::steady_clock::time_point start,
                       long rto_us, detail::Mailbox::Raw& out) {
  const int wd = group_->domain_->watchdogMs();
  // The watchdog runs from `start`, or from now when unset; the unguarded
  // pop reads no clock.
  if (start == std::chrono::steady_clock::time_point{} && wd > 0)
    start = std::chrono::steady_clock::now();
  for (;;) {
    // Bound each wait by the RTO slice and by what remains of the
    // watchdog; 0 waits forever.
    long wait_us = rto_us;
    if (wd > 0) {
      const long remain_us =
          wd * 1000L -
          static_cast<long>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
      if (remain_us <= 0)
        throw Error(ErrorCode::kTimeout, rank_, source, tag,
                    "recv watchdog fired after " + std::to_string(wd) +
                        "ms; last phase: " + trace::lastPhase(rank_));
      wait_us = wait_us > 0 ? std::min(wait_us, remain_us) : remain_us;
    }
    if (group_->boxes_[rank_].pop(source, tag, wait_us, out)) return true;
    if (rto_us > 0) return false;
  }
}

Message Comm::recv(int source, int tag) { return recvImpl(source, tag, true); }

Message Comm::recvUntraced(int source, int tag) {
  return recvImpl(source, tag, false);
}

Message Comm::recvImpl(int source, int tag, bool traced) {
  if (group_->domain_->framingEnabled()) {
    // Our own held-back messages must not deadlock us while we block.
    flushDelayed();
    if (tag >= 0) return recvFramed(source, tag, traced);
  }
  detail::Mailbox::Raw raw;
  popWatchdog(source, tag, {}, 0, raw);
  Message m;
  m.source = raw.source;
  m.tag = raw.tag;
  m.body = InBuffer(std::move(raw.bytes));
  if (traced && trace::enabled())
    trace::recvAs(rank_, m.source, static_cast<std::int64_t>(m.body.size()),
                  "pcu");
  return m;
}

std::optional<Message> Comm::serveStash(int source, int tag, bool traced) {
  // Serve any stashed out-of-order message that has become current.
  for (auto it = reorder_stash_.begin(); it != reorder_stash_.end(); ++it) {
    if (it->msg.tag != tag) continue;
    if (source != kAnySource && it->msg.source != source) continue;
    auto& expected = recv_seq_[channelKey(it->msg.source, tag)];
    if (it->seq != expected) continue;
    ++expected;
    Message m = std::move(it->msg);
    reorder_stash_.erase(it);
    if (group_->domain_->reliableEnabled())
      group_->arq_store_.ack(m.source, rank_, tag, expected);
    if (traced && trace::enabled())
      trace::recvAs(rank_, m.source, static_cast<std::int64_t>(m.body.size()),
                    "pcu");
    return m;
  }
  return std::nullopt;
}

Message Comm::recvFramed(int source, int tag, bool traced) {
  const bool reliable = group_->domain_->reliableEnabled();
  const arq::Config cfg = reliable ? arq::config() : arq::Config{};
  auto& store = group_->arq_store_;
  const auto start = std::chrono::steady_clock::now();
  // The strict policy blocks until a frame arrives; the reliable one wakes
  // every RTO interval to scan the store, backing off while idle.
  long rto_us = reliable ? cfg.rto_us : 0;
  // What this receiver has delivered so far on (src, tag): frames below
  // this are duplicates, frames at it are next in line.
  auto expectedOf = [&](int src) {
    auto it = recv_seq_.find(channelKey(src, tag));
    return it == recv_seq_.end() ? std::uint64_t{0} : it->second;
  };
  // Pull a clean copy of a lost frame back into this rank's mailbox.
  auto pull = [&](int src, std::uint64_t seq, std::vector<std::byte> bytes) {
    arq::retransmit(*group_->domain_, src, rank_, tag, seq, 0);
    group_->boxes_[rank_].push(src, tag, std::move(bytes));
  };
  // Pull every store frame on the channel(s) not yet delivered; true when
  // at least one came through (it will surface via the mailbox).
  auto pullChannel = [&](int src) {
    bool recovered = false;
    for (auto& f : store.pending(rank_, src, tag, expectedOf)) {
      pull(f.src, f.seq, std::move(f.bytes));
      recovered = true;
    }
    return recovered;
  };
  for (;;) {
    if (auto m = serveStash(source, tag, traced)) return std::move(*m);
    detail::Mailbox::Raw raw;
    if (!popWatchdog(source, tag, start, rto_us, raw)) {
      // RTO fired: scan the store for undelivered frames (covers delayed
      // and reordered traffic whose beacon never existed), then back off.
      if (!pullChannel(source))
        rto_us = std::min(rto_us * 2, static_cast<long>(cfg.max_rto_us));
      continue;
    }
    if (reliable && faults::isLossBeacon(raw.bytes)) {
      // The injector dropped (raw.source, tag, seq): recover it from the
      // store right now — this is what keeps the retransmit tax small.
      const std::uint64_t seq = faults::beaconSeq(raw.bytes);
      if (seq >= expectedOf(raw.source))
        if (auto bytes = store.fetch(rank_, raw.source, tag, seq);
            !bytes.empty())
          pull(raw.source, seq, std::move(bytes));
      continue;
    }
    std::uint64_t seq = 0;
    std::vector<std::byte> payload;
    try {
      payload = faults::unframe(std::move(raw.bytes), seq, rank_, raw.source,
                                tag);
    } catch (const Error&) {
      if (!reliable) throw;
      // Corrupt frame: its seq field cannot be trusted, so discard it and
      // re-fetch everything undelivered on the source channel.
      arq::noteCorruptDropped();
      pullChannel(raw.source);
      continue;
    }
    auto& expected = recv_seq_[channelKey(raw.source, tag)];
    if (seq < expected) {
      if (!reliable)
        throw Error(ErrorCode::kDuplicateMessage, rank_, raw.source, tag,
                    "channel seq " + std::to_string(seq) +
                        " already delivered (expected " +
                        std::to_string(expected) + ")");
      // Sequence-based dedup: injected duplicates and double-recovered
      // frames vanish here instead of raising kDuplicateMessage.
      arq::noteDuplicateDropped();
      continue;
    }
    Message m;
    m.source = raw.source;
    m.tag = raw.tag;
    m.body = InBuffer(std::move(payload));
    if (seq > expected) {
      // Arrived early (reordered): stash it and keep waiting for the
      // in-sequence message. A strict receiver whose awaited frame was
      // dropped turns this wait into a diagnosed kTimeout via the
      // watchdog; a reliable one pulls it from the store.
      reorder_stash_.push_back(Stashed{std::move(m), seq});
      continue;
    }
    ++expected;
    if (reliable) {
      // In-order delivery acknowledges the channel prefix: the sender-side
      // store prunes everything below `expected`.
      store.ack(raw.source, rank_, tag, expected);
      arq::noteAcked();
    }
    if (traced && trace::enabled())
      trace::recvAs(rank_, m.source, static_cast<std::int64_t>(m.body.size()),
                    "pcu");
    return m;
  }
}

bool Comm::probe(int source, int tag) {
  return group_->boxes_[rank_].probe(source, tag);
}

void Comm::barrier() {
  const int n = size();
  const int me = rank_;
  // Reduce phase: binomial tree toward rank 0.
  int mask = 1;
  while (mask < n) {
    if (me & mask) {
      sendInternal(me - mask, kTagBarrierUp, {});
      break;
    }
    if (me + mask < n) (void)recv(me + mask, kTagBarrierUp);
    mask <<= 1;
  }
  // Release phase: mirror the tree back down. After the loop above, `mask`
  // is this rank's lsb (the bit at which it reported up) for non-zero ranks,
  // or the first power of two >= n for rank 0.
  if (me != 0) (void)recv(me - mask, kTagBarrierDown);
  mask >>= 1;
  while (mask > 0) {
    if (me + mask < n) sendInternal(me + mask, kTagBarrierDown, {});
    mask >>= 1;
  }
}

std::vector<std::byte> Comm::broadcast(int root, std::vector<std::byte> bytes) {
  const int n = size();
  const int me = (rank_ - root + n) % n;  // relabel so root is 0
  // Canonical binomial broadcast (MPICH-style).
  int mask = 1;
  while (mask < n) {
    if (me & mask) {
      const int src = ((me - mask) + root) % n;
      Message m = recv(src, kTagBcast);
      bytes = m.body.unpackVector<std::byte>();
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (me + mask < n) {
      OutBuffer b;
      b.packVector(bytes);
      sendInternal(((me + mask) + root) % n, kTagBcast, std::move(b).take());
    }
    mask >>= 1;
  }
  return bytes;
}

std::vector<std::vector<std::byte>> Comm::gather(int root,
                                                 std::vector<std::byte> bytes) {
  const int n = size();
  const int me = (rank_ - root + n) % n;
  // Each node carries a set of (original rank, payload) pairs up the tree.
  std::vector<std::pair<int, std::vector<std::byte>>> carried;
  carried.emplace_back(rank_, std::move(bytes));
  for (int step = 1; step < n; step <<= 1) {
    if (me & step) {
      OutBuffer b;
      b.pack<std::uint32_t>(static_cast<std::uint32_t>(carried.size()));
      for (auto& [r, payload] : carried) {
        b.pack<std::int32_t>(r);
        b.packVector(payload);
      }
      sendInternal(((me - step) + root) % n, kTagGather, std::move(b).take());
      carried.clear();
      break;
    }
    const int child = me + step;
    if (child < n) {
      Message m = recv((child + root) % n, kTagGather);
      const auto count = m.body.unpack<std::uint32_t>();
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto r = m.body.unpack<std::int32_t>();
        carried.emplace_back(r, m.body.unpackVector<std::byte>());
      }
    }
  }
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(n);
    for (auto& [r, payload] : carried) out[r] = std::move(payload);
  }
  return out;
}

std::vector<std::vector<std::byte>> Comm::allgather(
    std::vector<std::byte> bytes) {
  // Recursive doubling: every rank carries a growing set of
  // (origin rank, payload) pairs; after log2(P) pairwise swaps everyone
  // holds all P payloads. This removes the root-0 serialization bottleneck
  // of the old gather+broadcast (root packed and re-sent all P payloads).
  // Non-power-of-two sizes fold the extra ranks in up front (as allreduce).
  const int n = size();
  std::vector<std::pair<int, std::vector<std::byte>>> carried;
  carried.reserve(static_cast<std::size_t>(n));
  carried.emplace_back(rank_, std::move(bytes));
  auto packSet = [&]() {
    OutBuffer b;
    b.pack<std::uint32_t>(static_cast<std::uint32_t>(carried.size()));
    for (auto& [r, payload] : carried) {
      b.pack<std::int32_t>(r);
      b.packVector(payload);
    }
    return std::move(b).take();
  };
  auto mergeSet = [&](Message m) {
    const auto count = m.body.unpack<std::uint32_t>();
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto r = m.body.unpack<std::int32_t>();
      carried.emplace_back(r, m.body.unpackVector<std::byte>());
    }
  };
  if (n > 1) {
    int pof2 = 1;
    while (pof2 * 2 <= n) pof2 *= 2;
    const int rem = n - pof2;
    if (rank_ >= pof2) {
      // Extra rank: contribute to the partner, then receive the full set.
      sendInternal(rank_ - pof2, kTagAllgather, packSet());
      carried.clear();
      mergeSet(recv(rank_ - pof2, kTagAllgather));
    } else {
      if (rank_ < rem) mergeSet(recv(rank_ + pof2, kTagAllgather));
      for (int mask = 1; mask < pof2; mask <<= 1) {
        const int peer = rank_ ^ mask;
        sendInternal(peer, kTagAllgather, packSet());
        mergeSet(recv(peer, kTagAllgather));
      }
      if (rank_ < rem) sendInternal(rank_ + pof2, kTagAllgather, packSet());
    }
  }
  std::vector<std::vector<std::byte>> out(n);
  for (auto& [r, payload] : carried) out[r] = std::move(payload);
  return out;
}

long Comm::reduceScatterSum(
    const std::vector<std::pair<int, long>>& contributions) {
  const int n = size();
  // Local pre-reduction into a sparse dest -> sum map.
  std::unordered_map<int, long> acc;
  for (const auto& [d, v] : contributions) {
    assert(d >= 0 && d < n && "reduceScatterSum destination out of range");
    acc[d] += v;
  }
  auto packMap = [](const std::unordered_map<int, long>& m) {
    OutBuffer b;
    b.pack<std::uint32_t>(static_cast<std::uint32_t>(m.size()));
    for (const auto& [d, v] : m) {
      b.pack<std::int32_t>(d);
      b.pack<std::int64_t>(static_cast<std::int64_t>(v));
    }
    return std::move(b).take();
  };
  auto mergeMap = [](Message m, std::unordered_map<int, long>& into) {
    const auto count = m.body.unpack<std::uint32_t>();
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto d = m.body.unpack<std::int32_t>();
      into[d] += static_cast<long>(m.body.unpack<std::int64_t>());
    }
  };
  if (n > 1) {
    int pof2 = 1;
    while (pof2 * 2 <= n) pof2 *= 2;
    const int rem = n - pof2;
    if (rank_ >= pof2) {
      // Extra rank: ship the whole sparse map to the partner, then receive
      // the single scalar destined for this rank.
      sendInternal(rank_ - pof2, kTagCount, packMap(acc));
      Message m = recv(rank_ - pof2, kTagCount);
      return static_cast<long>(m.body.unpack<std::int64_t>());
    }
    if (rank_ < rem) mergeMap(recv(rank_ + pof2, kTagCount), acc);
    // Recursive halving over the power-of-two participants: each round the
    // active index window [lo, lo+sz) splits in half; every rank ships the
    // entries owned by the other half to its mirror partner and keeps its
    // own half. Folded destinations d >= pof2 are owned by rank d - pof2.
    // Per-rank traffic is O(map entries * log2 P), independent of P itself
    // when the contribution pattern is sparse (the neighbour-count use).
    int lo = 0;
    int sz = pof2;
    while (sz > 1) {
      const int half = sz / 2;
      const bool lower = rank_ < lo + half;
      const int partner = lower ? rank_ + half : rank_ - half;
      std::unordered_map<int, long> keep, give;
      for (const auto& [d, v] : acc) {
        const int owner = d < pof2 ? d : d - pof2;
        const bool owner_lower = owner < lo + half;
        if (owner_lower == lower)
          keep[d] += v;
        else
          give[d] += v;
      }
      sendInternal(partner, kTagCount, packMap(give));
      acc = std::move(keep);
      mergeMap(recv(partner, kTagCount), acc);
      if (!lower) lo += half;
      sz = half;
    }
    // acc now holds only destinations owned by this rank: rank_ itself and,
    // when rank_ < rem, the folded extra rank_ + pof2 — send the latter its
    // scalar.
    if (rank_ < rem) {
      long extra = 0;
      if (auto it = acc.find(rank_ + pof2); it != acc.end()) extra = it->second;
      OutBuffer b;
      b.pack<std::int64_t>(static_cast<std::int64_t>(extra));
      sendInternal(rank_ + pof2, kTagCount, std::move(b).take());
    }
  }
  const auto it = acc.find(rank_);
  return it == acc.end() ? 0 : it->second;
}

Comm Comm::split(int color, int key) {
  auto& g = *group_;
  std::unique_lock<std::mutex> lock(g.split_mutex_);
  // Generation safety: a fast rank looping straight into the next split must
  // not enroll while the previous round's takers are still draining. The
  // round is "full" from the moment the last rank enrolls until the last
  // taker resets it, so waiting out fullness serializes rounds.
  while (g.split_arrived_ == g.size_)
    g.split_cv_.wait_for(lock, std::chrono::milliseconds(2));
  if (g.split_entries_.empty())
    g.split_entries_.assign(static_cast<std::size_t>(g.size_), {0, 0});
  g.split_entries_[static_cast<std::size_t>(rank_)] = {color, key};
  ++g.split_arrived_;
  g.split_cv_.notify_all();
  // Rendezvous on shared state rather than an allgather: no message traffic
  // means the split composes with chaotic fault plans (nothing here can be
  // dropped or corrupted).
  while (g.split_arrived_ < g.size_)
    g.split_cv_.wait_for(lock, std::chrono::milliseconds(2));
  // Every rank computes its own color's membership from the frozen entries;
  // ordered by (key, rank) like MPI_Comm_split.
  struct Entry {
    int key;
    int rank;
  };
  std::vector<Entry> members;
  for (int r = 0; r < g.size_; ++r)
    if (g.split_entries_[static_cast<std::size_t>(r)][0] == color)
      members.push_back(Entry{g.split_entries_[static_cast<std::size_t>(r)][1],
                              r});
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });
  const int sub_size = static_cast<int>(members.size());
  int my_index = 0;
  for (int i = 0; i < sub_size; ++i)
    if (members[i].rank == rank_) my_index = i;
  auto it = g.split_groups_.find(color);
  if (it == g.split_groups_.end()) {
    // First rank of this color publishes the subgroup. Fresh mailboxes and
    // ARQ store per subgroup: no cross-color traffic is possible by
    // construction. Machine: shared-memory if all members share a node,
    // else flat.
    bool all_same_node = true;
    for (const auto& m : members)
      if (!machine().sameNode(m.rank, members.front().rank))
        all_same_node = false;
    const Machine sub_machine = all_same_node ? Machine::singleNode(sub_size)
                                              : Machine::flat(sub_size);
    it = g.split_groups_
             .emplace(color, std::make_shared<Group>(sub_size, sub_machine))
             .first;
  }
  auto sub = it->second;
  if (++g.split_taken_ == g.size_) {
    // Last rank out resets the rendezvous for the next split generation.
    g.split_entries_.clear();
    g.split_groups_.clear();
    g.split_arrived_ = 0;
    g.split_taken_ = 0;
    g.split_cv_.notify_all();
  }
  return Comm(std::move(sub), my_index);
}

}  // namespace pcu
