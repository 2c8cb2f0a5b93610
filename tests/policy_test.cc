// Tests for checkpointing, the compressor registry, and the per-tensor
// compression policy (ByteComp-lite).
#include <gtest/gtest.h>

#include <cstdio>

#include "compress/registry.h"
#include "core/aggregators.h"
#include "core/policy.h"
#include "dnn/checkpoint.h"
#include "dnn/mini_models.h"
#include "models/model_zoo.h"
#include "tensor/rng.h"

namespace acps {
namespace {

// ------------------------------------------------------------- policy -----

sim::GpuModel PaperGpu() { return sim::GpuModel(sim::GpuSpec{}, 32); }

TEST(Policy, SlowNetworkCompressesEverythingEligible) {
  const auto model = models::BertBase();
  comm::CostModel net(comm::NetworkSpec::Ethernet1G(), 32);
  core::PolicyConfig cfg;
  cfg.rank = 32;
  cfg.exposure = 1.0;
  const auto policy = core::DecidePolicy(model, net, PaperGpu(), cfg);
  const auto all = core::AllLowRank(model, 32);
  EXPECT_EQ(policy.num_lowrank(), all.num_lowrank());
  EXPECT_GT(policy.num_lowrank(), 50u);
}

TEST(Policy, FastHiddenNetworkStaysDense) {
  const auto model = models::ResNet50();
  comm::CostModel net(comm::NetworkSpec::Infiniband100G(), 32);
  core::PolicyConfig cfg;
  cfg.rank = 4;
  cfg.exposure = 0.05;  // WFBP hides almost everything on 100Gb
  const auto policy = core::DecidePolicy(model, net, PaperGpu(), cfg);
  EXPECT_EQ(policy.num_lowrank(), 0u);
}

TEST(Policy, LowRankFractionMonotoneInBandwidth) {
  const auto model = models::BertLarge();
  core::PolicyConfig cfg;
  cfg.rank = 32;
  size_t prev = SIZE_MAX;
  for (const auto& spec :
       {comm::NetworkSpec::Ethernet1G(), comm::NetworkSpec::Ethernet10G(),
        comm::NetworkSpec::Infiniband100G()}) {
    comm::CostModel net(spec, 32);
    const auto policy = core::DecidePolicy(model, net, PaperGpu(), cfg);
    EXPECT_LE(policy.num_lowrank(), prev) << spec.name;
    prev = policy.num_lowrank();
  }
}

TEST(Policy, DecisionNeverWorseThanUniformPolicies) {
  core::PolicyConfig cfg;
  cfg.rank = 32;
  for (const auto& spec :
       {comm::NetworkSpec::Ethernet1G(), comm::NetworkSpec::Ethernet10G(),
        comm::NetworkSpec::Infiniband100G()}) {
    for (double exposure : {0.05, 0.5, 1.0}) {
      cfg.exposure = exposure;
      const auto model = models::BertBase();
      comm::CostModel net(spec, 32);
      const auto gpu = PaperGpu();
      const auto decided = core::DecidePolicy(model, net, gpu, cfg);
      const double d =
          core::EvaluatePolicy(model, decided, net, gpu, cfg).exposed_s;
      const double dense = core::EvaluatePolicy(
          model, core::AllDense(model, 32), net, gpu, cfg).exposed_s;
      const double lowrank = core::EvaluatePolicy(
          model, core::AllLowRank(model, 32), net, gpu, cfg).exposed_s;
      EXPECT_LE(d, dense + 1e-9) << spec.name << " e=" << exposure;
      EXPECT_LE(d, lowrank + 1e-9) << spec.name << " e=" << exposure;
    }
  }
}

TEST(Policy, EvaluateRejectsIllegalAssignments) {
  const auto model = models::ResNet18();
  comm::CostModel net(comm::NetworkSpec::Ethernet10G(), 32);
  core::PolicyConfig cfg;
  auto bad = core::AllDense(model, 4);
  // Mark a bias (vector param) low-rank: must throw.
  for (size_t i = 0; i < model.layers.size(); ++i) {
    if (!model.layers[i].compressible) {
      bad.per_tensor[i] = core::TensorMethod::kLowRank;
      break;
    }
  }
  EXPECT_THROW(
      (void)core::EvaluatePolicy(model, bad, net, PaperGpu(), cfg), Error);
  auto wrong_size = core::AllDense(model, 4);
  wrong_size.per_tensor.pop_back();
  EXPECT_THROW(
      (void)core::EvaluatePolicy(model, wrong_size, net, PaperGpu(), cfg),
      Error);
}

// --------------------------------------------------------- checkpoints ----

TEST(Checkpoint, RoundTripsExactWeights) {
  dnn::Network a = dnn::VggMini();
  a.Init(123);
  const std::string path = ::testing::TempDir() + "/acps_ckpt_test.bin";
  ASSERT_TRUE(dnn::SaveCheckpoint(a, path));

  dnn::Network b = dnn::VggMini();
  b.Init(456);  // different weights
  ASSERT_TRUE(dnn::LoadCheckpoint(b, path));
  const auto pa = a.params();
  const auto pb = b.params();
  for (size_t i = 0; i < pa.size(); ++i)
    EXPECT_TRUE(pa[i]->value.all_close(pb[i]->value, 0.0f)) << pa[i]->name;
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsStructureMismatch) {
  dnn::Network vgg = dnn::VggMini();
  vgg.Init(1);
  const std::string path = ::testing::TempDir() + "/acps_ckpt_mismatch.bin";
  ASSERT_TRUE(dnn::SaveCheckpoint(vgg, path));
  dnn::Network res = dnn::ResMini();
  res.Init(1);
  EXPECT_THROW((void)dnn::LoadCheckpoint(res, path), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruption) {
  dnn::Network net = dnn::ResMini();
  net.Init(9);
  const std::string path = ::testing::TempDir() + "/acps_ckpt_corrupt.bin";
  ASSERT_TRUE(dnn::SaveCheckpoint(net, path));
  // Truncate the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  EXPECT_THROW((void)dnn::LoadCheckpoint(net, path), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileReturnsFalse) {
  dnn::Network net = dnn::VggMini();
  net.Init(1);
  EXPECT_FALSE(dnn::LoadCheckpoint(net, "/nonexistent/ckpt.bin"));
  EXPECT_FALSE(dnn::SaveCheckpoint(net, "/nonexistent/ckpt.bin"));
}

// ------------------------------------------------------------ registry ----

TEST(Registry, BuildsEveryKnownSpec) {
  Rng rng(1);
  std::vector<float> g(200);
  for (auto& v : g) v = rng.normal();
  for (const std::string& spec : compress::KnownCompressors()) {
    auto c = compress::MakeCompressor(spec);
    ASSERT_NE(c, nullptr) << spec;
    const auto blob = c->Encode(g);
    EXPECT_EQ(blob.size(), c->EncodedBytes(g.size())) << spec;
    std::vector<float> out(g.size());
    c->Decode(blob, out);
  }
}

TEST(Registry, ParsesParameters) {
  auto topk = compress::MakeCompressor("topk:0.5");
  // ratio 0.5 on 10 elements keeps 5 records.
  std::vector<float> g(10, 1.0f);
  EXPECT_EQ(topk->EncodedBytes(10), 16u + 5u * 8u);
  auto block = compress::MakeCompressor("blockwise-sign:2");
  EXPECT_EQ(block->name(), "blockwise-sign");
}

// One grammar: every spec below is rejected by the compressor factory and
// by the aggregator factory alike, before any parameter conversion.
TEST(Registry, RejectsBadSpecs) {
  for (const char* spec : {
           "unknown", "", ":0.1", "topk:abc", "topk:", "topk:0", "topk:-0.1",
           "topk:1.5", "topk:nan", "topk:inf", "topk: 0.1", "topk:+0.1",
           "topk:0x1p-3", "topk:0.1:2", "randomk:0", "randomk:2",
           "blockwise-sign:-1", "blockwise-sign:0", "blockwise-sign:1.5",
           "blockwise-sign:1e300", "qsgd:1e10", "qsgd:16.9", "qsgd:0",
           "qsgd:128", "sign:3", "sign:", "terngrad:1", "fp16:1", "ssgd:1",
           "powersgd:0", "powersgd:2.5", "acpsgd:-4", "acpsgd:1e10"}) {
    EXPECT_THROW((void)compress::MakeCompressor(spec), Error) << spec;
    EXPECT_THROW((void)core::MakeAggregatorFactory(spec), Error) << spec;
  }
  // Valid method specs that are not one-shot compressors.
  for (const char* spec : {"ssgd", "powersgd:2", "acpsgd"}) {
    EXPECT_THROW((void)compress::MakeCompressor(spec), Error) << spec;
    EXPECT_NO_THROW((void)core::MakeAggregatorFactory(spec)) << spec;
  }
}

}  // namespace
}  // namespace acps
