#include "pcu/comm.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <tuple>
#include <unordered_map>

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

void Mailbox::pop(int source, int tag, Raw& out) {
  // Fast path: the consumer-private queue already holds a match — no lock.
  if (takeLocal(source, tag, out)) return;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!inbox_.empty()) {
      // Drain the whole inbox in one swap; scan it outside the lock.
      for (auto& m : inbox_) local_.push_back(std::move(m));
      inbox_.clear();
      lock.unlock();
      if (takeLocal(source, tag, out)) return;
      lock.lock();
      continue;  // inbox may have refilled while unlocked
    }
    cv_.wait(lock);
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
    : size_(size), machine_(machine), boxes_(size) {
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
  send(dest, tag, std::vector<std::byte>(buf.data(), buf.data() + buf.size()));
}

void Comm::send(int dest, int tag, std::vector<std::byte> bytes) {
  assert(tag >= 0 && "negative tags are reserved for collectives");
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

void Comm::sendCoalesced(int dest, int tag, std::vector<std::byte> segment,
                         std::uint64_t logical_count,
                         std::uint64_t logical_bytes) {
  assert(tag >= 0 && "negative tags are reserved for collectives");
  accountSendCoalesced(dest, logical_count, logical_bytes, segment.size());
  push(dest, tag, std::move(segment));
}

void Comm::reserveInbound(std::size_t n) {
  group_->boxes_[rank_].reserveInbound(n);
}

Message Comm::recv(int source, int tag) { return recvImpl(source, tag, true); }

Message Comm::recvUntraced(int source, int tag) {
  return recvImpl(source, tag, false);
}

Message Comm::recvImpl(int source, int tag, bool traced) {
  detail::Mailbox::Raw raw;
  group_->boxes_[rank_].pop(source, tag, raw);
  Message m;
  m.source = raw.source;
  m.tag = raw.tag;
  m.body = InBuffer(std::move(raw.bytes));
  if (traced && trace::enabled())
    trace::recvAs(rank_, m.source, static_cast<std::int64_t>(m.body.size()),
                  "pcu");
  return m;
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
  // Rendezvous on shared state rather than an allgather: the split posts
  // no message, so it cannot interleave with user traffic.
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
    // First rank of this color publishes the subgroup. Fresh mailboxes per
    // subgroup: no cross-color traffic is possible by construction. Machine: shared-memory if all members share a node,
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
