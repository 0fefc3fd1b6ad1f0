#include "pcu/counters.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

namespace pcu {

double now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

namespace {

/// Parse a "Vm...: N kB" line from /proc/self/status.
std::uint64_t readProcStatusKb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream iss(line.substr(key.size() + 1));
      std::uint64_t kb = 0;
      iss >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace

std::uint64_t currentMemoryBytes() { return readProcStatusKb("VmRSS") * 1024; }

std::uint64_t peakMemoryBytes() { return readProcStatusKb("VmHWM") * 1024; }

}  // namespace pcu
