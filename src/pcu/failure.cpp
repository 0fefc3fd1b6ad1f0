#include "pcu/failure.hpp"

#include <atomic>

#include "pcu/trace.hpp"

namespace pcu::failure {

namespace {

std::atomic<std::uint64_t> g_suspicions{0};
std::atomic<std::uint64_t> g_grows{0};
std::atomic<std::uint64_t> g_ranks_joined{0};
std::atomic<std::int64_t> g_last_detect_us{0};
std::atomic<std::int64_t> g_max_detect_us{0};

}  // namespace

Stats stats() {
  Stats s;
  s.suspicions = g_suspicions.load(std::memory_order_relaxed);
  s.grows = g_grows.load(std::memory_order_relaxed);
  s.ranks_joined = g_ranks_joined.load(std::memory_order_relaxed);
  s.last_detect_us = g_last_detect_us.load(std::memory_order_relaxed);
  s.max_detect_us = g_max_detect_us.load(std::memory_order_relaxed);
  return s;
}

void resetStats() {
  g_suspicions.store(0, std::memory_order_relaxed);
  g_grows.store(0, std::memory_order_relaxed);
  g_ranks_joined.store(0, std::memory_order_relaxed);
  g_last_detect_us.store(0, std::memory_order_relaxed);
  g_max_detect_us.store(0, std::memory_order_relaxed);
}

void noteSuspicion(std::int64_t latency_us) {
  const auto total = g_suspicions.fetch_add(1, std::memory_order_relaxed) + 1;
  g_last_detect_us.store(latency_us, std::memory_order_relaxed);
  std::int64_t prev = g_max_detect_us.load(std::memory_order_relaxed);
  while (latency_us > prev &&
         !g_max_detect_us.compare_exchange_weak(prev, latency_us,
                                                std::memory_order_relaxed)) {
  }
  if (trace::enabled()) {
    trace::counter("fd:suspicions", static_cast<std::int64_t>(total));
    trace::counter("fd:suspicion_latency_us", latency_us);
  }
}

void noteGrow(int ranks) {
  const auto total = g_grows.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto joined =
      g_ranks_joined.fetch_add(static_cast<std::uint64_t>(ranks),
                               std::memory_order_relaxed) +
      static_cast<std::uint64_t>(ranks);
  if (trace::enabled()) {
    trace::counter("fd:grow_events", static_cast<std::int64_t>(total));
    trace::counter("fd:ranks_joined", static_cast<std::int64_t>(joined));
  }
}

}  // namespace pcu::failure
