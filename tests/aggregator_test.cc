// Integration tests: gradient aggregators against the real thread cluster.
#include <gtest/gtest.h>

#include <atomic>

#include "core/aggregators.h"
#include "dnn/layers.h"
#include "tensor/rng.h"

namespace acps::core {
namespace {

// Builds a small parameter set (2 matrices + 1 vector) with per-worker
// deterministic gradients.
struct TestParams {
  dnn::Param w1, w2, bias;

  explicit TestParams(int rank) {
    w1.name = "w1";
    w1.value = Tensor({16, 24});
    w1.grad = Tensor({16, 24});
    w1.matrix_rows = 16;
    w1.matrix_cols = 24;
    w2.name = "w2";
    w2.value = Tensor({8, 40});
    w2.grad = Tensor({8, 40});
    w2.matrix_rows = 8;
    w2.matrix_cols = 40;
    bias.name = "bias";
    bias.value = Tensor({24});
    bias.grad = Tensor({24});
    Rng rng(1000 + static_cast<uint64_t>(rank));
    rng.fill_normal(w1.grad);
    rng.fill_normal(w2.grad);
    rng.fill_normal(bias.grad);
  }

  std::vector<dnn::Param*> list() { return {&w1, &w2, &bias}; }
};

// The exact mean gradients across `p` workers.
TestParams MeanOf(int p) {
  TestParams mean(0);
  for (int r = 1; r < p; ++r) {
    TestParams other(r);
    mean.w1.grad.add_(other.w1.grad);
    mean.w2.grad.add_(other.w2.grad);
    mean.bias.grad.add_(other.bias.grad);
  }
  const float inv = 1.0f / static_cast<float>(p);
  mean.w1.grad.scale_(inv);
  mean.w2.grad.scale_(inv);
  mean.bias.grad.scale_(inv);
  return mean;
}

TEST(AllReduceAggregator, ComputesExactMean) {
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    AllReduceAggregator agg;
    auto params = tp.list();
    agg.Aggregate(params, comm);
    if (!tp.w1.grad.all_close(expect.w1.grad, 1e-4f)) ++failures;
    if (!tp.w2.grad.all_close(expect.w2.grad, 1e-4f)) ++failures;
    if (!tp.bias.grad.all_close(expect.bias.grad, 1e-4f)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(AllReduceAggregator, SmallBucketsStillExact) {
  const int p = 3;
  comm::Transport group_transport;
  comm::Session group(group_transport, "", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    AllReduceAggregator agg(/*buffer_bytes=*/256);  // force many buckets
    auto params = tp.list();
    agg.Aggregate(params, comm);
    if (!tp.w1.grad.all_close(expect.w1.grad, 1e-4f)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

// All workers must hold identical gradients after any aggregator runs —
// otherwise replicas diverge.
template <typename MakeAgg>
void CheckWorkersIdentical(int p, MakeAgg make) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", p);
  std::vector<Tensor> w1(static_cast<size_t>(p)), w2(static_cast<size_t>(p)),
      bias(static_cast<size_t>(p));
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    auto agg = make(comm.rank(), p);
    auto params = tp.list();
    // Two rounds so stateful aggregators exercise both parities.
    for (int round = 0; round < 2; ++round) agg->Aggregate(params, comm);
    w1[static_cast<size_t>(comm.rank())] = tp.w1.grad.clone();
    w2[static_cast<size_t>(comm.rank())] = tp.w2.grad.clone();
    bias[static_cast<size_t>(comm.rank())] = tp.bias.grad.clone();
  });
  for (int r = 1; r < p; ++r) {
    EXPECT_TRUE(w1[static_cast<size_t>(r)].all_close(w1[0], 1e-5f)) << r;
    EXPECT_TRUE(w2[static_cast<size_t>(r)].all_close(w2[0], 1e-5f)) << r;
    EXPECT_TRUE(bias[static_cast<size_t>(r)].all_close(bias[0], 1e-5f)) << r;
  }
}

TEST(Aggregators, AllWorkersEndIdentical) {
  for (const char* spec : {"ssgd", "powersgd:2", "acpsgd:2", "sign", "topk:0.1",
                           "randomk:0.1", "qsgd:16", "fp16"})
    CheckWorkersIdentical(4, MakeAggregatorFactory(spec));
  CheckWorkersIdentical(3, [](int r, int w) {
    return MakeAcpSgdFactory(2, /*error_feedback=*/false, /*reuse=*/false)(r, w);
  });
}

TEST(CompressedAggregator, SignMatchesMajorityVoteReference) {
  const int p = 3;
  comm::Transport group_transport;
  comm::Session group(group_transport, "", p);
  std::vector<Tensor> results(static_cast<size_t>(p));
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    // First step: the EF residual is still zero.
    auto agg = MakeAggregatorFactory("sign")(comm.rank(), p);
    auto params = tp.list();
    agg->Aggregate(params, comm);
    results[static_cast<size_t>(comm.rank())] = tp.bias.grad.clone();
  });
  // Reference: majority vote of the bias signs (the bias is packed last in
  // reverse order => first in the flat layout).
  std::vector<TestParams> workers;
  for (int r = 0; r < p; ++r) workers.emplace_back(r);
  for (int64_t i = 0; i < 24; ++i) {
    int vote = 0;
    for (auto& w : workers) vote += w.bias.grad.at(i) < 0 ? -1 : 1;
    const float got = results[0].at(i);
    EXPECT_EQ(got > 0, vote >= 0) << i;
  }
}

TEST(CompressedAggregator, TopkKeepsOnlyUnionOfTopkCoordinates) {
  const int p = 2;
  comm::Transport group_transport;
  comm::Session group(group_transport, "", p);
  std::vector<Tensor> results(static_cast<size_t>(p));
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    auto agg = MakeAggregatorFactory("topk:0.05")(comm.rank(), p);
    auto params = tp.list();
    agg->Aggregate(params, comm);
    results[static_cast<size_t>(comm.rank())] = tp.w1.grad.clone();
  });
  // With ratio 0.05 over 1448 elements total, most coordinates are zero.
  int64_t nonzero = 0;
  for (float v : results[0].data())
    if (v != 0.0f) ++nonzero;
  EXPECT_GT(nonzero, 0);
  EXPECT_LT(nonzero, results[0].numel() / 4);
}

TEST(PowerSgdAggregator, VectorParamsExact) {
  // Vector params bypass compression and must be exactly averaged.
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    PowerSgdAggregator agg(compress::PowerSgdConfig{});
    auto params = tp.list();
    agg.Aggregate(params, comm);
    if (!tp.bias.grad.all_close(expect.bias.grad, 1e-4f)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(AcpSgdAggregator, ApproximatesMeanOverSteps) {
  // Averaged over many steps with error feedback, the ACP aggregate
  // converges to the true mean gradient (each worker keeps the same local
  // gradient across steps).
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    compress::AcpSgdConfig cfg;
    cfg.rank = 4;
    AcpSgdAggregator agg(cfg);
    Tensor sum({16, 24});
    const int steps = 40;
    for (int t = 0; t < steps; ++t) {
      TestParams tp(comm.rank());  // fresh copy of the same gradients
      auto params = tp.list();
      agg.Aggregate(params, comm);
      sum.add_(tp.w1.grad);
    }
    sum.scale_(1.0f / steps);
    Tensor diff = sum.clone();
    diff.sub_(expect.w1.grad);
    if (diff.norm2() / expect.w1.grad.norm2() > 0.25f) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(AcpSgdAggregator, VectorParamsExact) {
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    compress::AcpSgdConfig cfg;
    cfg.rank = 2;
    AcpSgdAggregator agg(cfg);
    TestParams tp(comm.rank());
    auto params = tp.list();
    agg.Aggregate(params, comm);
    if (!tp.bias.grad.all_close(expect.bias.grad, 1e-4f)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace acps::core
