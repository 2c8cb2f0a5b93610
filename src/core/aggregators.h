// Gradient aggregators: the per-worker runtime that turns local gradients
// into globally averaged gradients. S-SGD, Power-SGD and ACP-SGD have their
// own runtimes; every one-shot compressor of the registry runs through
// CompressedAggregator, the single compressed-aggregation pipeline. All run
// against the real in-process collectives (acps::comm), so the math —
// bucketing, majority voting, factor aggregation, error feedback — is
// executed end to end, not simulated.
//
// Contract: Aggregate() is collective — every worker of the group must call
// it with structurally identical parameter lists (same order, shapes), and
// afterwards every param.grad holds the aggregated (mean) gradient the
// optimizer should apply. Params are processed in REVERSE list order,
// mirroring the gradient-ready order of back-propagation.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.h"
#include "compress/acpsgd.h"
#include "compress/aggregation.h"
#include "compress/powersgd.h"
#include "dnn/layer.h"
#include "fusion/bucket_assigner.h"

namespace acps::core {

class GradientAggregator {
 public:
  virtual ~GradientAggregator() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void Aggregate(const std::vector<dnn::Param*>& params,
                         comm::Communicator& comm) = 0;
};

// One aggregator per worker; the factory is invoked inside each worker
// thread so per-worker state (EF residuals, low-rank factors) stays private.
using AggregatorFactory =
    std::function<std::unique_ptr<GradientAggregator>(int rank, int world)>;

// --- S-SGD: bucketed ring all-reduce (the well-optimized baseline). -------
class AllReduceAggregator final : public GradientAggregator {
 public:
  explicit AllReduceAggregator(
      int64_t buffer_bytes = fusion::kDefaultBufferBytes)
      : buffer_bytes_(buffer_bytes) {}
  [[nodiscard]] std::string name() const override { return "ssgd"; }
  void Aggregate(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm) override;

 private:
  int64_t buffer_bytes_;
};

// --- Any one-shot compressor (Sign, Top-k, Random-k, QSGD, ...). ----------
// Packs every gradient into one flat tensor (reverse order, §III-A) and runs
// it through compress::CompressedAggregation: the compressor decides its
// wire shape, its merge and whether error feedback applies.
class CompressedAggregator final : public GradientAggregator {
 public:
  explicit CompressedAggregator(std::unique_ptr<compress::Compressor> c)
      : pipeline_(std::move(c)) {}
  [[nodiscard]] std::string name() const override {
    return pipeline_.compressor().name();
  }
  void Aggregate(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm) override;

 private:
  compress::CompressedAggregation pipeline_;
};

// --- Power-SGD (Algorithm 1): blocking two-phase low-rank aggregation. -----
class PowerSgdAggregator final : public GradientAggregator {
 public:
  explicit PowerSgdAggregator(compress::PowerSgdConfig config,
                              int64_t buffer_bytes = fusion::kDefaultBufferBytes)
      : powersgd_(config), buffer_bytes_(buffer_bytes) {}
  [[nodiscard]] std::string name() const override { return "powersgd"; }
  void Aggregate(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm) override;

 private:
  compress::PowerSgd powersgd_;
  int64_t buffer_bytes_;
};

// --- ACP-SGD (Algorithm 2): the paper's contribution. ----------------------
// Per step: one local compression per matrix (non-blocking), factors fused
// into buckets sized by the paper's scaled-buffer rule, ONE all-reduce per
// bucket, then decompression. Vector params ride dense buckets like S-SGD.
class AcpSgdAggregator final : public GradientAggregator {
 public:
  explicit AcpSgdAggregator(compress::AcpSgdConfig config,
                            int64_t buffer_bytes = fusion::kDefaultBufferBytes)
      : acp_(config), buffer_bytes_(buffer_bytes) {}
  [[nodiscard]] std::string name() const override { return "acpsgd"; }
  void Aggregate(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm) override;

 private:
  compress::AcpSgd acp_;
  int64_t buffer_bytes_;
};

// ACP-SGD with the Fig 7 ablation switches (error feedback, query reuse).
[[nodiscard]] AggregatorFactory MakeAcpSgdFactory(int64_t rank,
                                                  bool error_feedback = true,
                                                  bool reuse = true);

// Spec-string factory, the bridge from comm::SessionOptions::compressor_spec
// to an AggregatorFactory. Accepts every spec of the registry
// (compress/registry.h): "ssgd", "powersgd[:rank]", "acpsgd[:rank]", and the
// one-shot compressors, which run through CompressedAggregator.
// `buffer_bytes` is the fusion budget for the bucketed methods; 0 means
// fusion::kDefaultBufferBytes. Throws acps::Error on an invalid spec.
[[nodiscard]] AggregatorFactory MakeAggregatorFactory(const std::string& spec,
                                                      int64_t buffer_bytes = 0);

}  // namespace acps::core
