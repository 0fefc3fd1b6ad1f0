#ifndef PUMI_PCU_RUNTIME_HPP
#define PUMI_PCU_RUNTIME_HPP

/// \file runtime.hpp
/// \brief SPMD launcher: run a function on N thread-backed ranks.
///
/// pcu::run(n, fn) is the reproduction's `mpirun`: it creates a Group of n
/// ranks, launches one thread per rank, and calls fn(Comm&) on each. The
/// call returns when every rank finishes; the first exception thrown by any
/// rank is re-thrown to the caller.

#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pcu/comm.hpp"
#include "pcu/machine.hpp"
#include "pcu/trace.hpp"

namespace pcu {

/// Run fn(Comm&) on `nranks` ranks over the given machine topology.
template <typename Fn>
void run(int nranks, const Machine& machine, Fn&& fn) {
  auto group = std::make_shared<Group>(nranks, machine);
  std::vector<std::thread> threads;
  threads.reserve(nranks);
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      trace::setThreadRank(r);
      try {
        Comm comm(group, r);
        fn(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Run with the default machine (all ranks on one shared-memory node).
template <typename Fn>
void run(int nranks, Fn&& fn) {
  run(nranks, Machine::singleNode(nranks), std::forward<Fn>(fn));
}

}  // namespace pcu

#endif  // PUMI_PCU_RUNTIME_HPP
