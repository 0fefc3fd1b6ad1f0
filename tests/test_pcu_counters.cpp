#include <gtest/gtest.h>

#include <vector>

#include "pcu/counters.hpp"

namespace {

TEST(Counters, NowIsMonotonic) {
  const double a = pcu::now();
  const double b = pcu::now();
  EXPECT_GE(b, a);
}

TEST(Counters, MemoryCountersReportSomething) {
  // On Linux /proc/self/status is available; both counters should be
  // positive and peak >= current.
  const auto current = pcu::currentMemoryBytes();
  const auto peak = pcu::peakMemoryBytes();
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak, current / 2);  // loose: VmHWM >= VmRSS modulo accounting
}

TEST(Counters, MemoryGrowsWithAllocation) {
  const auto before = pcu::currentMemoryBytes();
  std::vector<std::vector<double>> hog;
  for (int i = 0; i < 32; ++i) hog.emplace_back(1 << 17, 1.0);  // 32 MB
  const auto after = pcu::currentMemoryBytes();
  EXPECT_GT(after, before);
  EXPECT_GT(hog.back().back(), 0.0);
}

}  // namespace
