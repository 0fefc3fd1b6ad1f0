#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "pcu/arq.hpp"
#include "pcu/comm.hpp"
#include "pcu/faults.hpp"
#include "pcu/phased.hpp"
#include "pcu/runtime.hpp"

namespace {

/// Rank counts used for parameterized sweeps, including non-powers of two.
class PcuCommSizes : public ::testing::TestWithParam<int> {};

TEST_P(PcuCommSizes, SendRecvRing) {
  const int n = GetParam();
  pcu::run(n, [&](pcu::Comm& c) {
    const int next = (c.rank() + 1) % n;
    const int prev = (c.rank() - 1 + n) % n;
    pcu::OutBuffer b;
    b.pack<int>(c.rank() * 10);
    c.send(next, 7, b);
    pcu::Message m = c.recv(prev, 7);
    EXPECT_EQ(m.source, prev);
    EXPECT_EQ(m.tag, 7);
    EXPECT_EQ(m.body.unpack<int>(), prev * 10);
  });
}

TEST_P(PcuCommSizes, Barrier) {
  const int n = GetParam();
  std::atomic<int> phase_count{0};
  pcu::run(n, [&](pcu::Comm& c) {
    for (int i = 0; i < 5; ++i) {
      phase_count.fetch_add(1);
      c.barrier();
      // After the barrier, everyone must have contributed to this phase.
      EXPECT_GE(phase_count.load(), (i + 1) * n);
      c.barrier();
    }
  });
  EXPECT_EQ(phase_count.load(), 5 * n);
}

TEST_P(PcuCommSizes, BroadcastFromEveryRoot) {
  const int n = GetParam();
  pcu::run(n, [&](pcu::Comm& c) {
    for (int root = 0; root < n; ++root) {
      pcu::OutBuffer b;
      if (c.rank() == root) {
        b.pack<int>(root * 100 + 13);
        b.packString("payload");
      }
      auto bytes = c.broadcast(root, std::move(b).take());
      pcu::InBuffer in(std::move(bytes));
      EXPECT_EQ(in.unpack<int>(), root * 100 + 13);
      EXPECT_EQ(in.unpackString(), "payload");
    }
  });
}

TEST_P(PcuCommSizes, AllreduceSumMinMax) {
  const int n = GetParam();
  pcu::run(n, [&](pcu::Comm& c) {
    const long sum = c.allreduceSum<long>(c.rank() + 1);
    EXPECT_EQ(sum, static_cast<long>(n) * (n + 1) / 2);
    EXPECT_EQ(c.allreduceMin<int>(c.rank()), 0);
    EXPECT_EQ(c.allreduceMax<int>(c.rank()), n - 1);
    const double dsum = c.allreduceSum<double>(0.5);
    EXPECT_DOUBLE_EQ(dsum, 0.5 * n);
  });
}

TEST_P(PcuCommSizes, AllreduceVector) {
  const int n = GetParam();
  pcu::run(n, [&](pcu::Comm& c) {
    std::vector<int> local(3);
    local[0] = 1;
    local[1] = c.rank();
    local[2] = -c.rank();
    auto r = c.allreduce(std::move(local), [](int a, int b) { return a + b; });
    EXPECT_EQ(r[0], n);
    EXPECT_EQ(r[1], n * (n - 1) / 2);
    EXPECT_EQ(r[2], -n * (n - 1) / 2);
  });
}

TEST_P(PcuCommSizes, GatherAllgather) {
  const int n = GetParam();
  pcu::run(n, [&](pcu::Comm& c) {
    pcu::OutBuffer b;
    b.pack<int>(c.rank() * c.rank());
    auto gathered = c.gather(0, std::move(b).take());
    if (c.rank() == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        pcu::InBuffer in(std::move(gathered[r]));
        EXPECT_EQ(in.unpack<int>(), r * r);
      }
    }
    auto values = c.allgatherValue<int>(c.rank() + 5);
    ASSERT_EQ(values.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) EXPECT_EQ(values[r], r + 5);
  });
}

TEST_P(PcuCommSizes, ExclusiveScan) {
  const int n = GetParam();
  pcu::run(n, [&](pcu::Comm& c) {
    const long prefix = c.exscanSum<long>(c.rank() + 1);
    long expected = 0;
    for (int r = 0; r < c.rank(); ++r) expected += r + 1;
    EXPECT_EQ(prefix, expected);
  });
}

TEST_P(PcuCommSizes, PhasedExchangeAllToAll) {
  const int n = GetParam();
  pcu::run(n, [&](pcu::Comm& c) {
    // Every rank sends one message to every other rank.
    std::vector<std::pair<int, pcu::OutBuffer>> outgoing;
    for (int d = 0; d < n; ++d) {
      if (d == c.rank()) continue;
      pcu::OutBuffer b;
      b.pack<int>(c.rank() * 1000 + d);
      outgoing.emplace_back(d, std::move(b));
    }
    auto received = pcu::phasedExchange(c, std::move(outgoing));
    ASSERT_EQ(received.size(), static_cast<std::size_t>(n - 1));
    std::vector<int> sources;
    for (auto& m : received) {
      sources.push_back(m.source);
      EXPECT_EQ(m.body.unpack<int>(), m.source * 1000 + c.rank());
    }
    std::sort(sources.begin(), sources.end());
    for (int i = 0, r = 0; r < n; ++r) {
      if (r == c.rank()) continue;
      EXPECT_EQ(sources[i++], r);
    }
  });
}

TEST_P(PcuCommSizes, PhasedExchangeSparse) {
  const int n = GetParam();
  pcu::run(n, [&](pcu::Comm& c) {
    // Only rank 0 sends, to the last rank.
    std::vector<std::pair<int, pcu::OutBuffer>> outgoing;
    if (c.rank() == 0) {
      pcu::OutBuffer b;
      b.packString("lonely");
      outgoing.emplace_back(n - 1, std::move(b));
    }
    auto received = pcu::phasedExchange(c, std::move(outgoing));
    if (c.rank() == n - 1 && n > 1) {
      ASSERT_EQ(received.size(), 1u);
      EXPECT_EQ(received[0].source, 0);
      EXPECT_EQ(received[0].body.unpackString(), "lonely");
    } else if (c.rank() == n - 1 && n == 1) {
      ASSERT_EQ(received.size(), 1u);  // self-send
    } else {
      EXPECT_TRUE(received.empty());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PcuCommSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 32));

TEST(PcuComm, MessageOrderingFifoPerSourceAndTag) {
  pcu::run(2, [](pcu::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        pcu::OutBuffer b;
        b.pack<int>(i);
        c.send(1, 3, b);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        pcu::Message m = c.recv(0, 3);
        EXPECT_EQ(m.body.unpack<int>(), i);
      }
    }
  });
}

TEST(PcuComm, TagsSelectMessages) {
  pcu::run(2, [](pcu::Comm& c) {
    if (c.rank() == 0) {
      pcu::OutBuffer a;
      a.pack<int>(111);
      c.send(1, 1, a);
      pcu::OutBuffer b;
      b.pack<int>(222);
      c.send(1, 2, b);
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      pcu::Message m2 = c.recv(0, 2);
      EXPECT_EQ(m2.body.unpack<int>(), 222);
      pcu::Message m1 = c.recv(0, 1);
      EXPECT_EQ(m1.body.unpack<int>(), 111);
    }
  });
}

TEST(PcuComm, AnySourceReceivesAll) {
  const int n = 4;
  pcu::run(n, [&](pcu::Comm& c) {
    if (c.rank() == 0) {
      std::vector<bool> seen(n, false);
      for (int i = 0; i < n - 1; ++i) {
        pcu::Message m = c.recv(pcu::kAnySource, 9);
        EXPECT_EQ(m.body.unpack<int>(), m.source);
        seen[m.source] = true;
      }
      for (int r = 1; r < n; ++r) EXPECT_TRUE(seen[r]);
    } else {
      pcu::OutBuffer b;
      b.pack<int>(c.rank());
      c.send(0, 9, b);
    }
  });
}

TEST(PcuComm, SplitByNodeFormsNodeComms) {
  // 2 nodes x 3 cores.
  pcu::run(6, pcu::Machine(2, 3), [](pcu::Comm& c) {
    EXPECT_EQ(c.machine().nodes(), 2);
    pcu::Comm node = c.split(c.machine().nodeOf(c.rank()), c.rank());
    EXPECT_EQ(node.size(), 3);
    EXPECT_EQ(node.rank(), c.rank() % 3);
    // Node comm works for collectives.
    const int sum = node.allreduceSum<int>(1);
    EXPECT_EQ(sum, 3);
    // Members of a node comm share the global node index.
    auto ranks = node.allgatherValue<int>(c.rank());
    for (int r : ranks)
      EXPECT_EQ(c.machine().nodeOf(r), c.machine().nodeOf(c.rank()));
  });
}

TEST(PcuComm, SplitByKeyReordersRanks) {
  pcu::run(4, [](pcu::Comm& c) {
    // All ranks same color; key reverses the order.
    pcu::Comm rev = c.split(0, -c.rank());
    EXPECT_EQ(rev.size(), 4);
    EXPECT_EQ(rev.rank(), 3 - c.rank());
  });
}

TEST(PcuComm, StatsClassifyOnAndOffNode) {
  pcu::run(4, pcu::Machine(2, 2), [](pcu::Comm& c) {
    if (c.rank() == 0) {
      pcu::OutBuffer b;
      b.pack<int>(1);
      c.send(1, 5, b);  // same node (node 0: ranks 0,1)
      c.send(2, 5, b);  // off node (node 1: ranks 2,3)
      EXPECT_EQ(c.stats().on_node_messages, 1u);
      EXPECT_EQ(c.stats().off_node_messages, 1u);
      EXPECT_EQ(c.stats().messages_sent, 2u);
      EXPECT_GT(c.stats().bytes_sent, 0u);
    }
    if (c.rank() == 1) (void)c.recv(0, 5);
    if (c.rank() == 2) (void)c.recv(0, 5);
  });
}

TEST(PcuComm, ExceptionInOneRankPropagates) {
  EXPECT_THROW(
      pcu::run(2,
               [](pcu::Comm& c) {
                 if (c.rank() == 1) throw std::runtime_error("rank failure");
               }),
      std::runtime_error);
}

TEST(PcuComm, LargePayloadRoundTrip) {
  pcu::run(2, [](pcu::Comm& c) {
    const std::size_t big = 1 << 20;  // 1M ints = 4MB
    if (c.rank() == 0) {
      std::vector<int> data(big);
      std::iota(data.begin(), data.end(), 0);
      pcu::OutBuffer b;
      b.packVector(data);
      c.send(1, 4, b);
    } else {
      pcu::Message m = c.recv(0, 4);
      auto data = m.body.unpackVector<int>();
      ASSERT_EQ(data.size(), big);
      EXPECT_EQ(data[0], 0);
      EXPECT_EQ(data[big - 1], static_cast<int>(big) - 1);
    }
  });
}

TEST(PcuComm, PlainTransportIgnoresFaultPlanAndReliableMode) {
  // pcu::Comm is the MPI stand-in: fault plans and reliable delivery act on
  // dist::Network only. Under a plan that drops and corrupts every message,
  // with reliability on, every payload still arrives exactly once, intact.
  struct Guard {
    Guard() {
      pcu::faults::FaultPlan plan;
      plan.seed = 3;
      plan.drop = 1.0;
      plan.corrupt = 1.0;
      pcu::faults::setPlan(plan);
      pcu::arq::setReliable(true);
    }
    ~Guard() {
      pcu::arq::setReliable(false);
      pcu::faults::clearPlan();
    }
  } guard;
  ASSERT_TRUE(pcu::faults::enabled());
  constexpr int kRanks = 4;
  constexpr int kRounds = 3;
  pcu::run(kRanks, [&](pcu::Comm& c) {
    for (int round = 0; round < kRounds; ++round) {
      // Two payloads to every rank, this one included.
      std::vector<std::pair<int, pcu::OutBuffer>> out;
      for (int dest = 0; dest < kRanks; ++dest)
        for (int k = 0; k < 2; ++k) {
          pcu::OutBuffer b;
          b.pack<int>(c.rank());
          b.pack<int>(round * 100 + dest * 10 + k);
          out.emplace_back(dest, std::move(b));
        }
      std::vector<int> got(static_cast<std::size_t>(kRanks * 2), 0);
      for (auto& m : pcu::phasedExchange(c, std::move(out))) {
        const int src = m.body.unpack<int>();
        const int value = m.body.unpack<int>();
        EXPECT_EQ(src, m.source);
        const int k = value - (round * 100 + c.rank() * 10);
        ASSERT_TRUE(k == 0 || k == 1) << "foreign payload " << value;
        ++got[static_cast<std::size_t>(src * 2 + k)];
      }
      for (int n : got) EXPECT_EQ(n, 1) << "rank " << c.rank();
    }
  });
  pcu::run(2, [](pcu::Comm& c) {
    for (int i = 0; i < 8; ++i) {
      if (c.rank() == 0) {
        c.send(1, 1, std::vector<std::byte>(64, std::byte(i)));
        auto reply = c.recv(1, 2).body.unpackRaw(64);
        EXPECT_EQ(reply, std::vector<std::byte>(64, std::byte(i + 1)));
      } else {
        auto ping = c.recv(0, 1).body.unpackRaw(64);
        EXPECT_EQ(ping, std::vector<std::byte>(64, std::byte(i)));
        c.send(0, 2, std::vector<std::byte>(64, std::byte(i + 1)));
      }
    }
    // A repeated payload would either fail a content check above or still
    // be queued here.
    EXPECT_FALSE(c.probe(1 - c.rank(), c.rank() == 0 ? 2 : 1));
  });
}

}  // namespace
