#include "comm/communicator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

namespace acps::comm {
namespace {

// Fills a per-rank test vector with a deterministic pattern.
std::vector<float> PatternFor(int rank, size_t n) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>((rank + 1) * 100 + static_cast<int>(i % 17));
  return v;
}

std::vector<float> ExpectedSum(int world, size_t n) {
  std::vector<float> sum(n, 0.0f);
  for (int r = 0; r < world; ++r) {
    const auto v = PatternFor(r, n);
    for (size_t i = 0; i < n; ++i) sum[i] += v[i];
  }
  return sum;
}

TEST(ChunkRange, PartitionsExactly) {
  for (int64_t n : {0, 1, 5, 7, 32, 100, 101}) {
    for (int p : {1, 2, 3, 4, 7, 8}) {
      int64_t covered = 0;
      int64_t prev_end = 0;
      for (int c = 0; c < p; ++c) {
        const ChunkRange r = GetChunkRange(n, p, c);
        EXPECT_EQ(r.begin, prev_end);
        EXPECT_GE(r.size(), 0);
        covered += r.size();
        prev_end = r.end;
      }
      EXPECT_EQ(covered, n);
    }
  }
  EXPECT_THROW((void)GetChunkRange(10, 2, 2), Error);
}

struct WorldSize {
  int p;
  size_t n;
};

class AllReduceTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(AllReduceTest, RingSumsAcrossWorkers) {
  const auto [p, n] = GetParam();
  Transport transport;
  Session group(transport, "", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    auto data = PatternFor(comm.rank(), n);
    comm.all_reduce(data);
    const auto expected = ExpectedSum(comm.world_size(), n);
    for (size_t i = 0; i < n; ++i) {
      if (std::abs(data[i] - expected[i]) > 1e-2f) {
        ++failures;
        break;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(AllReduceTest, NaiveMatchesRing) {
  const auto [p, n] = GetParam();
  Transport transport;
  Session group(transport, "", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    auto ring = PatternFor(comm.rank(), n);
    auto naive = PatternFor(comm.rank(), n);
    comm.all_reduce(ring);
    comm.all_reduce(naive, ReduceOp::kSum, AllReduceAlgo::kNaive);
    for (size_t i = 0; i < n; ++i) {
      if (std::abs(ring[i] - naive[i]) > 1e-2f) {
        ++failures;
        break;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllReduceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8),
                       ::testing::Values<size_t>(0, 1, 3, 16, 257, 1024)));

TEST(AllReduce, MaxOp) {
  Transport transport;
  Session group(transport, "", 4);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    std::vector<float> v{static_cast<float>(comm.rank()),
                         static_cast<float>(-comm.rank())};
    comm.all_reduce(v, ReduceOp::kMax);
    if (v[0] != 3.0f || v[1] != 0.0f) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(AllGather, CollectsInRankOrder) {
  const int p = 4;
  const size_t n = 10;
  Transport transport;
  Session group(transport, "", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    const auto mine = PatternFor(comm.rank(), n);
    std::vector<float> all(n * p);
    comm.all_gather(mine, all);
    for (int r = 0; r < p; ++r) {
      const auto expect = PatternFor(r, n);
      for (size_t i = 0; i < n; ++i) {
        if (all[static_cast<size_t>(r) * n + i] != expect[i]) ++failures;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(AllGather, SizeMismatchThrows) {
  Transport transport;
  Session group(transport, "", 2);
  EXPECT_THROW(group.Run([&](Communicator& comm) {
    std::vector<float> send(4), recv(7);  // 7 != 2*4
    comm.all_gather(send, recv);
  }),
               Error);
}

TEST(AllGatherBytes, RoundTrips) {
  const int p = 3;
  Transport transport;
  Session group(transport, "", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    std::vector<std::byte> mine(5, static_cast<std::byte>(comm.rank() + 65));
    std::vector<std::byte> all(15);
    comm.all_gather_bytes(mine, all);
    for (int r = 0; r < p; ++r)
      for (int i = 0; i < 5; ++i)
        if (all[static_cast<size_t>(r * 5 + i)] !=
            static_cast<std::byte>(r + 65))
          ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(AllGatherV, VariableSizes) {
  const int p = 4;
  Transport transport;
  Session group(transport, "", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    // Worker r contributes r+1 bytes of value (r+1).
    std::vector<std::byte> mine(static_cast<size_t>(comm.rank() + 1),
                                static_cast<std::byte>(comm.rank() + 1));
    std::vector<std::byte> recv;
    std::vector<size_t> offsets;
    comm.all_gather_v(mine, recv, offsets);
    if (recv.size() != 1 + 2 + 3 + 4) ++failures;
    for (int r = 0; r < p; ++r) {
      if (offsets[static_cast<size_t>(r + 1)] -
              offsets[static_cast<size_t>(r)] !=
          static_cast<size_t>(r + 1))
        ++failures;
      for (size_t i = offsets[static_cast<size_t>(r)];
           i < offsets[static_cast<size_t>(r + 1)]; ++i)
        if (recv[i] != static_cast<std::byte>(r + 1)) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ReduceScatter, EachWorkerOwnsItsChunk) {
  const int p = 4;
  const size_t n = 21;  // deliberately not divisible by p
  Transport transport;
  Session group(transport, "", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    auto data = PatternFor(comm.rank(), n);
    comm.reduce_scatter(data);
    const auto expected = ExpectedSum(p, n);
    const ChunkRange c = GetChunkRange(static_cast<int64_t>(n), p, comm.rank());
    for (int64_t i = c.begin; i < c.end; ++i) {
      if (std::abs(data[static_cast<size_t>(i)] -
                   expected[static_cast<size_t>(i)]) > 1e-2f)
        ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Broadcast, FromEachRoot) {
  const int p = 4;
  for (int root = 0; root < p; ++root) {
    Transport transport;
    Session group(transport, "", p);
    std::atomic<int> failures{0};
    group.Run([&](Communicator& comm) {
      std::vector<float> v(8, comm.rank() == root ? 42.0f : -1.0f);
      comm.broadcast(v, root);
      for (float x : v)
        if (x != 42.0f) ++failures;
    });
    EXPECT_EQ(failures.load(), 0) << "root=" << root;
  }
}

TEST(Broadcast, BadRootThrows) {
  Transport transport;
  Session group(transport, "", 2);
  EXPECT_THROW(group.Run([&](Communicator& comm) {
    std::vector<float> v(1);
    comm.broadcast(v, 5);
  }),
               Error);
}

// Communication-volume properties from Table II: ring all-reduce moves
// 2(p-1)/p * N elements per worker; ring all-gather (p-1) * N_send.
TEST(TrafficStats, RingAllReduceVolumeMatchesTableII) {
  const int p = 4;
  const size_t n = 64;  // divisible by p so chunking is exact
  Transport transport;
  Session group(transport, "", p);
  group.Run([&](Communicator& comm) {
    auto data = PatternFor(comm.rank(), n);
    comm.all_reduce(data);
    const uint64_t expect_bytes =
        2ull * (p - 1) * (n / p) * sizeof(float);
    EXPECT_EQ(comm.stats().bytes_sent, expect_bytes);
    EXPECT_EQ(comm.stats().messages_sent, 2ull * (p - 1));
    EXPECT_EQ(comm.stats().collectives, 1u);
  });
}

TEST(TrafficStats, AllGatherVolumeMatchesTableII) {
  const int p = 4;
  const size_t n = 32;
  Transport transport;
  Session group(transport, "", p);
  group.Run([&](Communicator& comm) {
    const auto mine = PatternFor(comm.rank(), n);
    std::vector<float> all(n * p);
    comm.all_gather(mine, all);
    EXPECT_EQ(comm.stats().bytes_sent, (p - 1) * n * sizeof(float));
    EXPECT_EQ(comm.stats().messages_sent, static_cast<uint64_t>(p - 1));
  });
}

TEST(TrafficStats, NaiveAllReduceIsLinearInP) {
  const int p = 4;
  const size_t n = 16;
  Transport transport;
  Session group(transport, "", p);
  group.Run([&](Communicator& comm) {
    auto data = PatternFor(comm.rank(), n);
    comm.all_reduce(data, ReduceOp::kSum, AllReduceAlgo::kNaive);
  });
  // Total traffic: p workers send N floats + root broadcasts N.
  const TrafficStats total = group.total_stats();
  EXPECT_EQ(total.bytes_sent, (p + 1) * n * sizeof(float));
}

TEST(SessionRun, WorkerExceptionPropagates) {
  Transport transport;
  Session group(transport, "", 3);
  EXPECT_THROW(group.Run([&](Communicator& comm) {
    if (comm.rank() == 1) throw Error("boom");
    // Other workers block on a barrier; the abort must release them.
    comm.barrier();
    comm.barrier();
  }),
               Error);
  // The group is reusable after an aborted run.
  std::atomic<int> ok{0};
  group.Run([&](Communicator& comm) {
    comm.barrier();
    ++ok;
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST(SessionRun, MixedCollectiveChainStaysConsistent) {
  // A chain of different collectives: any rendezvous skew would corrupt
  // results or deadlock.
  Transport transport;
  Session group(transport, "", 4);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    for (int round = 0; round < 20; ++round) {
      auto v = PatternFor(comm.rank() + round, 33);
      comm.all_reduce(v);
      comm.barrier();
      std::vector<float> g(33 * 4);
      comm.all_gather(std::span<const float>(v).subspan(0, 33), g);
      std::vector<float> b(5, comm.rank() == round % 4 ? 1.0f : 0.0f);
      comm.broadcast(b, round % 4);
      if (b[0] != 1.0f) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(SessionRun, WorldSizeOne) {
  Transport transport;
  Session group(transport, "", 1);
  group.Run([&](Communicator& comm) {
    auto v = PatternFor(0, 7);
    const auto before = v;
    comm.all_reduce(v);
    EXPECT_EQ(v, before);  // no-op with p=1
    std::vector<float> g(7);
    comm.all_gather(v, g);
    EXPECT_EQ(g, before);
  });
}

TEST(SessionRun, RejectsBadWorldSize) {
  Transport transport;
  EXPECT_THROW(Session(transport, "", 0), Error);
}


TEST(SessionRun, BarrierTimeoutDetectsMismatchedCollectives) {
  // Worker 1 skips the collective entirely: without the watchdog the
  // others would deadlock; with it the group aborts with an error.
  Transport transport(TransportOptions{.barrier_timeout_ms = 200});
  Session group(transport, "", 3);
  EXPECT_THROW(group.Run([&](Communicator& comm) {
    if (comm.rank() == 1) return;  // never reaches the barrier
    std::vector<float> v(8, 1.0f);
    comm.all_reduce(v);
  }),
               Error);
}

TEST(SessionRun, TimeoutDoesNotFireOnHealthyRuns) {
  Transport transport(TransportOptions{.barrier_timeout_ms = 5000});
  Session group(transport, "", 4);
  std::atomic<int> ok{0};
  group.Run([&](Communicator& comm) {
    std::vector<float> v(128, static_cast<float>(comm.rank()));
    for (int i = 0; i < 10; ++i) comm.all_reduce(v);
    ++ok;
  });
  EXPECT_EQ(ok.load(), 4);
}

// --- Named sessions ----------------------------------------------------------
// The cases above run on the anonymous session (job id ""); these open named
// tenants, salted envelopes and metric prefixes included.

TEST(Session, RingAllReduceSumsAcrossWorkers) {
  constexpr int kWorld = 4;
  constexpr size_t kN = 64;
  Transport transport;
  Session session(transport, "comm-test", kWorld);
  const auto expected = ExpectedSum(kWorld, kN);
  session.Run([&](Communicator& comm) {
    auto v = PatternFor(comm.rank(), kN);
    comm.all_reduce(v);
    for (size_t i = 0; i < kN; ++i) EXPECT_FLOAT_EQ(v[i], expected[i]);
  });
}

TEST(Session, SequentialCollectivesStayConsistent) {
  Transport transport;
  Session session(transport, "comm-test", 3);
  session.Run([&](Communicator& comm) {
    for (int iter = 0; iter < 5; ++iter) {
      auto v = PatternFor(comm.rank(), 32);
      comm.all_reduce(v);
      const auto expected = ExpectedSum(3, 32);
      for (size_t i = 0; i < v.size(); ++i) EXPECT_FLOAT_EQ(v[i], expected[i]);

      std::vector<float> b(16, comm.rank() == 1 ? 7.5f : 0.0f);
      comm.broadcast(b, /*root=*/1);
      for (const float x : b) EXPECT_FLOAT_EQ(x, 7.5f);
    }
  });
}

TEST(Session, ReusableAcrossRuns) {
  Transport transport;
  Session session(transport, "comm-test", 2);
  for (int run = 0; run < 3; ++run) {
    session.Run([&](Communicator& comm) {
      std::vector<float> v(8, static_cast<float>(comm.rank() + run));
      comm.all_reduce(v);
      for (const float x : v)
        EXPECT_FLOAT_EQ(x, static_cast<float>(2 * run + 1));
    });
    // Traffic is per-Run, not cumulative across Runs: ring all-reduce of 8
    // floats at p=2 costs each worker 2*(p-1)*(n/p) = 8 floats on the wire.
    EXPECT_EQ(session.total_stats().bytes_sent, 2u * 8u * sizeof(float));
  }
}

TEST(Session, ConcurrentSessionsShareOneTransport) {
  // Two independent jobs on one transport, driven from two plain threads
  // (what TrainingService does with runner threads). Each must see only its
  // own ranks' contributions.
  Transport transport;
  Session a(transport, "job-a", 2);
  Session b(transport, "job-b", 3);
  EXPECT_EQ(transport.active_sessions(), 2);
  EXPECT_EQ(transport.active_ranks(), 5);

  std::atomic<int> ok{0};
  std::thread ta([&] {
    a.Run([&](Communicator& comm) {
      for (int i = 0; i < 20; ++i) {
        std::vector<float> v(64, 1.0f);
        comm.all_reduce(v);
        for (const float x : v) ASSERT_FLOAT_EQ(x, 2.0f);
      }
      ++ok;
    });
  });
  std::thread tb([&] {
    b.Run([&](Communicator& comm) {
      for (int i = 0; i < 20; ++i) {
        std::vector<float> v(64, 1.0f);
        comm.all_reduce(v);
        for (const float x : v) ASSERT_FLOAT_EQ(x, 3.0f);
      }
      ++ok;
    });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(ok.load(), 5);
}

}  // namespace
}  // namespace acps::comm
