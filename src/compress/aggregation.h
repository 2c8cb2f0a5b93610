// The compressed-aggregation pipeline: the one path every one-shot
// compressor (compress/registry.h) takes through a group, used by the
// trainer and service (core::CompressedAggregator), the chaos and churn
// harnesses and the rank-invariance oracle.
//
// One call of Aggregate, on every alive rank:
//   1. error-feedback add-in, when the compressor is biased;
//   2. encode into a reused blob;
//   3. decode of the own blob (what EF subtracts), when biased;
//   4. the wire, as the compressor's WireShape says (paper §III-C):
//      additive  — in-place all-reduce of the value payload, 1/alive scale,
//                  then Decode of the reduced blob;
//      gathered  — one all-gather of the packed blob, then the compressor's
//                  Merge over the alive ranks' blobs in rank order;
//   5. EF update from the own-blob reconstruction, then the merged result
//      overwrites the gradient.
//
// compress sits below comm, so the collectives arrive as functions (the
// AllReduceMeanFn pattern of PowerSgd::Step).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "compress/compressor.h"
#include "compress/error_feedback.h"
#include "tensor/tensor.h"

namespace acps::compress {

// The collectives one aggregation rides, supplied by the caller.
struct GroupOps {
  // In-place sum over the alive ranks, then the 1/alive scale (alive count
  // sampled after the collective).
  AllReduceMeanFn all_reduce_mean;
  // One all-gather of equal-size blobs into `recv` (world_size blocks, rank
  // order; blocks of crashed ranks are zero-filled). Returns the alive
  // ranks, ascending, as sampled at that collective.
  std::function<std::vector<int>(std::span<const std::byte> send,
                                 std::span<std::byte> recv)>
      all_gather;
  int world_size = 1;
};

class CompressedAggregation {
 public:
  explicit CompressedAggregation(std::unique_ptr<Compressor> compressor);

  // Replaces `grad` with the group aggregate. Collective: every alive rank
  // calls it with the same `tensor_id` and element count. `tensor_id` keys
  // the EF residual.
  void Aggregate(int64_t tensor_id, Tensor& grad, const GroupOps& ops);

  [[nodiscard]] const Compressor& compressor() const { return *compressor_; }
  [[nodiscard]] ErrorFeedback& error_feedback() { return ef_; }

  // This rank's own blob decoded, from the last Aggregate (empty unless the
  // compressor is biased): the reconstruction EF subtracted.
  [[nodiscard]] std::span<const float> own_reconstruction() const {
    return recon_.data();
  }

 private:
  std::unique_ptr<Compressor> compressor_;
  ErrorFeedback ef_;
  std::vector<std::byte> blob_;      // reused across steps
  std::vector<std::byte> gathered_;  // reused across steps
  Tensor recon_;
};

}  // namespace acps::compress
