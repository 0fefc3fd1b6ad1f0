#ifndef PUMI_PCU_COUNTERS_HPP
#define PUMI_PCU_COUNTERS_HPP

/// \file counters.hpp
/// \brief Run-time and memory usage measurement (paper Sec. II-D,
/// "Performance measurement: run-time and memory usage counter").

#include <cstdint>

namespace pcu {

/// Wall-clock seconds since an arbitrary epoch.
double now();

/// Resident set size of this process in bytes (0 if unavailable).
std::uint64_t currentMemoryBytes();

/// Peak resident set size of this process in bytes (0 if unavailable).
std::uint64_t peakMemoryBytes();

}  // namespace pcu

#endif  // PUMI_PCU_COUNTERS_HPP
