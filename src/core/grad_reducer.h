// Hook-driven ACP-SGD gradient reducer — the WFBP runtime of §IV-C.
//
// The paper's prototype registers a hook per learnable tensor; when
// back-propagation produces a gradient the hook compresses it and copies
// the factor into a fusion bucket, and a bucket's all-reduce is issued the
// moment its last member is ready (wait-free back-propagation + tensor
// fusion). AcpSgdAggregator (aggregators.h) performs the same math as a
// single post-backward call; GradReducer exposes the per-tensor hook flow
// so communication genuinely starts mid-backward:
//
//   GradReducer reducer(net.params(), config, comm);
//   reducer.BeginStep();
//   net.Backward(grad, [&](size_t i) { reducer.OnGradReady(i); });
//   reducer.FinishStep();   // waits for in-flight buckets + decompresses
//
// Bucket plans (which tensors fuse) are fixed at construction — separately
// for the P parity, the Q parity (factor sizes differ!) and the dense
// tensors — so every worker issues the identical collective sequence.
#pragma once

#include <optional>

#include "comm/communicator.h"
#include "compress/acpsgd.h"
#include "fusion/bucket_assigner.h"
#include "fusion/fusion_buffer.h"
#include "dnn/layer.h"
#include "obs/metrics_registry.h"

namespace acps::core {

class GradReducer {
 public:
  // `params` in forward order (hooks fire in reverse during backward, but
  // any order is accepted). The communicator must outlive the reducer and
  // all workers must construct reducers with identical params/config.
  // `config` is validated here (AcpSgdConfig::Validate) and `buffer_bytes`
  // must be positive. If the communicator's Transport carries an enabled
  // obs::Tracer, every hook/compress/bucket/decompress emits a span; if
  // `metrics` is non-null (not owned), bucket counters/histograms are
  // recorded there.
  GradReducer(std::vector<dnn::Param*> params, compress::AcpSgdConfig config,
              comm::Communicator* comm,
              int64_t buffer_bytes = fusion::kDefaultBufferBytes,
              obs::MetricsRegistry* metrics = nullptr);

  // Starts a new step; all tensors become "not ready".
  void BeginStep();

  // Marks params[param_index].grad as produced: compresses it (or queues
  // it densely) and, if this completes a bucket, issues that bucket's
  // all-reduce immediately and decompresses its tensors.
  void OnGradReady(size_t param_index);

  // Verifies every tensor was reduced this step. After this, every
  // param->grad holds the aggregated gradient.
  void FinishStep();

  [[nodiscard]] uint64_t steps() const noexcept { return steps_; }
  [[nodiscard]] size_t num_lowrank() const noexcept { return lowrank_of_.size(); }

 private:
  struct BucketPlan {
    std::vector<int> members;  // indices into the class (lowrank or dense)
    int pending = 0;
  };

  void IssueLowRankBucket(int bucket);
  void IssueDenseBucket(int bucket);

  std::vector<dnn::Param*> params_;        // forward order
  compress::AcpSgd acp_;
  comm::Communicator* comm_;
  int64_t buffer_bytes_;
  obs::MetricsRegistry* metrics_;  // optional, not owned

  // Classification (fixed): per param, its index within its class or -1.
  std::vector<int> lowrank_index_;  // params_ index -> lowrank ordinal
  std::vector<int> dense_index_;    // params_ index -> dense ordinal
  std::vector<size_t> lowrank_of_;  // lowrank ordinal -> params_ index
  std::vector<size_t> dense_of_;    // dense ordinal -> params_ index

  // Bucket plans per parity (0 = Q step, 1 = P step) and for dense params.
  std::vector<std::vector<BucketPlan>> factor_plans_;  // [parity][bucket]
  std::vector<BucketPlan> dense_plan_;
  std::vector<int> lowrank_bucket_of_[2];  // per parity
  std::vector<int> dense_bucket_of_;

  // Per-step state.
  uint64_t steps_ = 0;
  bool in_step_ = false;
  std::vector<std::optional<std::span<float>>> factors_;  // by lowrank ord.
  std::vector<bool> ready_;
  size_t remaining_ = 0;
};

}  // namespace acps::core
