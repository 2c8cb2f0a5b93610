// End-to-end distributed-training smoke tests (small versions of Fig 6/7).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <span>

#include "compress/registry.h"
#include "core/distributed_optimizer.h"
#include "core/resync.h"
#include "core/trainer.h"
#include "dnn/loss.h"
#include "dnn/mini_models.h"
#include "obs/kernel_metrics.h"
#include "par/kernel_stats.h"

namespace acps::core {
namespace {

TrainConfig SmallConfig() {
  TrainConfig cfg;
  cfg.model = "vgg-mini";
  cfg.train_samples = 512;
  cfg.test_samples = 128;
  cfg.epochs = 4;
  cfg.batch_per_worker = 32;
  cfg.lr = dnn::LrSchedule{0.05f, 1, {3}, 0.1f};
  cfg.data.noise = 0.5f;
  return cfg;
}

TEST(Trainer, SsgdLossDecreases) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 4);
  const TrainResult r =
      TrainDistributed(group, SmallConfig(), MakeAggregatorFactory("ssgd"));
  ASSERT_EQ(r.history.size(), 4u);
  EXPECT_LT(r.history.back().train_loss, 0.7 * r.history.front().train_loss);
  EXPECT_GT(r.final_test_acc, 0.5);
}

TEST(Trainer, AcpSgdLearns) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 4);
  TrainConfig cfg = SmallConfig();
  cfg.epochs = 6;
  cfg.lr.decay_epochs = {4};
  const TrainResult r = TrainDistributed(group, cfg, MakeAcpSgdFactory(4));
  EXPECT_LT(r.history.back().train_loss, r.history.front().train_loss);
  EXPECT_GT(r.best_test_acc, 0.4);
}

// Every one-shot compressor of the registry trains end to end through the
// aggregator factory, on the AcpSgdLearns schedule. The weak cases are
// Top-k and Random-k at their default ratios (one coordinate in a thousand
// and one in a hundred per step; test accuracy near 0.39 and 0.27 here, see
// the FOUND lines on top-k and random-k in CHANGES.md), so the bar is
// learning, not accuracy: a finite loss that falls by a quarter and test
// accuracy at least twice chance.
class RegistrySpecTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySpecTest, Trains) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 4);
  TrainConfig cfg = SmallConfig();
  cfg.epochs = 6;
  cfg.lr.decay_epochs = {4};
  const TrainResult r =
      TrainDistributed(group, cfg, MakeAggregatorFactory(GetParam()));
  ASSERT_EQ(r.history.size(), 6u);
  for (const EpochStat& e : r.history)
    ASSERT_TRUE(std::isfinite(e.train_loss)) << "epoch " << e.epoch;
  EXPECT_LE(r.history.back().train_loss, 0.75 * r.history.front().train_loss);
  EXPECT_GE(r.final_test_acc, 0.2);
}

INSTANTIATE_TEST_SUITE_P(KnownCompressors, RegistrySpecTest,
                         ::testing::ValuesIn(compress::KnownCompressors()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name)
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return name;
                         });

TEST(Trainer, WorldSizeOneMatchesSingleProcess) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 1);
  TrainConfig cfg = SmallConfig();
  cfg.batch_per_worker = 64;
  const TrainResult r =
      TrainDistributed(group, cfg, MakeAggregatorFactory("ssgd"));
  EXPECT_GT(r.final_test_acc, 0.5);
}

TEST(Trainer, PerStepMetricsIncludeKernelStats) {
  // With kernel accounting on, the rank-0 per-iteration metrics block must
  // export the kernel table — including the packed-panel traffic gauges —
  // and re-exporting every step must not inflate anything (the gauges carry
  // cumulative snapshot totals, so the final value matches the snapshot).
  par::ResetKernelStats();
  par::SetKernelStatsEnabled(true);
  obs::MetricsRegistry registry;
  registry.Enable();
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 2);
  TrainConfig cfg = SmallConfig();
  cfg.epochs = 2;
  cfg.metrics = &registry;
  (void)TrainDistributed(group, cfg, MakeAggregatorFactory("ssgd"));
  par::SetKernelStatsEnabled(false);

  const std::string dump = registry.DumpText();
  EXPECT_NE(dump.find("kernel.gemm.calls"), std::string::npos) << dump;
  EXPECT_NE(dump.find("kernel.gemm.pack_bytes"), std::string::npos) << dump;
  EXPECT_NE(dump.find("kernel.gemm.panel_reuses"), std::string::npos) << dump;
  EXPECT_NE(dump.find("kernel.gemm.bytes"), std::string::npos) << dump;

  uint64_t gemm_calls = 0;
  for (const auto& [name, stat] : par::KernelStatsSnapshot()) {
    if (name == "gemm") gemm_calls = stat.calls;
  }
  ASSERT_GT(gemm_calls, 0u);
  // The last per-step export happened before the final evaluation pass, so
  // the gauge trails the snapshot; it must still be positive and bounded.
  EXPECT_GT(registry.gauge("kernel.gemm.calls").value(), 0.0);
  EXPECT_LE(registry.gauge("kernel.gemm.calls").value(),
            static_cast<double>(gemm_calls));
  // Idempotence: re-exporting twice lands on the snapshot total both times
  // instead of accumulating.
  obs::ExportKernelStats(registry);
  obs::ExportKernelStats(registry);
  EXPECT_EQ(registry.gauge("kernel.gemm.calls").value(),
            static_cast<double>(gemm_calls));
  par::ResetKernelStats();
}

TEST(Trainer, RejectsNonDivisibleSamples) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 3);
  TrainConfig cfg = SmallConfig();  // 512 not divisible by 3*32
  EXPECT_THROW(
      (void)TrainDistributed(group, cfg, MakeAggregatorFactory("ssgd")),
      Error);
}

TEST(Trainer, HistoryIsOrdered) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 2);
  const TrainResult r =
      TrainDistributed(group, SmallConfig(), MakeAggregatorFactory("ssgd"));
  for (size_t i = 0; i < r.history.size(); ++i)
    EXPECT_EQ(r.history[i].epoch, static_cast<int>(i));
}

TEST(DistributedOptimizer, StepAggregatesAndUpdates) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 2);
  std::vector<float> first_weights(2);
  group.Run([&](comm::Communicator& comm) {
    dnn::Network net = dnn::VggMini();
    net.Init(5);
    DistributedOptimizer opt(net.params(),
                             std::make_unique<AllReduceAggregator>(),
                             dnn::LrSchedule{0.1f, 0, {}, 1.0f});
    // Different per-worker gradients.
    Rng rng(10 + static_cast<uint64_t>(comm.rank()));
    for (auto* p : net.params()) rng.fill_normal(p->grad);
    opt.Step(comm, 0.0);
    EXPECT_GT(opt.last_lr(), 0.0f);
    first_weights[static_cast<size_t>(comm.rank())] =
        net.params()[0]->value.at(0);
  });
  // After an aggregated step, replicas must have identical weights.
  EXPECT_FLOAT_EQ(first_weights[0], first_weights[1]);
}

TEST(DistributedOptimizer, RejectsNullAggregator) {
  dnn::Network net = dnn::VggMini();
  net.Init(1);
  EXPECT_THROW(DistributedOptimizer(net.params(), nullptr,
                                    dnn::LrSchedule{}),
               Error);
}

// Elastic-membership resync (core/resync.h): BroadcastFlat moves the
// donor's concatenated buffers onto every rank, BroadcastScalar moves a
// 64-bit counter bit-exactly through the float wire, and ResyncFrom
// overwrites a diverged replica with the donor's parameters.
TEST(Resync, BroadcastFlatAndScalarAdoptDonorState) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 3);
  constexpr uint64_t kDonorStep = (7ull << 32) | 0xC0FFEEull;  // both halves
  std::vector<std::vector<float>> a_after(3), b_after(3);
  std::vector<uint64_t> steps(3);
  group.Run([&](comm::Communicator& comm) {
    const float tag = static_cast<float>(comm.rank() + 1);
    std::vector<float> a(5, tag), b(3, -tag);
    BroadcastFlat(comm, {std::span<float>(a), std::span<float>(b)},
                  /*root=*/1);
    const uint64_t local =
        comm.rank() == 1 ? kDonorStep : 0ull;
    steps[static_cast<size_t>(comm.rank())] =
        BroadcastScalar(comm, local, /*root=*/1);
    a_after[static_cast<size_t>(comm.rank())] = a;
    b_after[static_cast<size_t>(comm.rank())] = b;
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(a_after[static_cast<size_t>(r)], std::vector<float>(5, 2.0f));
    EXPECT_EQ(b_after[static_cast<size_t>(r)], std::vector<float>(3, -2.0f));
    EXPECT_EQ(steps[static_cast<size_t>(r)], kDonorStep);
  }
}

TEST(Resync, ResyncFromOverwritesDivergedReplica) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "", 2);
  std::vector<std::vector<float>> weights(2);
  group.Run([&](comm::Communicator& comm) {
    dnn::Network net = dnn::VggMini();
    net.Init(5);
    DistributedOptimizer opt(net.params(),
                             std::make_unique<AllReduceAggregator>(),
                             dnn::LrSchedule{0.1f, 0, {}, 1.0f});
    if (comm.rank() == 1) {
      // Diverge: a joiner's replica holds garbage before resync.
      for (auto* p : net.params())
        for (int64_t i = 0; i < p->value.numel(); ++i)
          p->value.at(i) = -99.0f;
    }
    opt.ResyncFrom(comm, /*donor=*/0);
    auto& w = weights[static_cast<size_t>(comm.rank())];
    for (auto* p : net.params())
      for (int64_t i = 0; i < p->value.numel(); ++i)
        w.push_back(p->value.at(i));
  });
  ASSERT_FALSE(weights[0].empty());
  EXPECT_EQ(weights[0], weights[1]) << "resync did not restore lockstep";
}

}  // namespace
}  // namespace acps::core
