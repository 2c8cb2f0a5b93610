// Error-feedback residual store (1-bit SGD / EF-SignSGD / Power-SGD style).
//
// Biased compressors drop part of the gradient every step; error feedback
// keeps the dropped part (the residual) per tensor and adds it back before
// the next compression, which restores convergence (paper §IV-A,
// Algorithm 2). The store is keyed by tensor id and lazily materializes
// zero residuals of the right shape.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "tensor/tensor.h"

namespace acps::compress {

class ErrorFeedback {
 public:
  // Residual for `tensor_id`, created as zeros of `shape` on first use.
  // The shape must stay stable across steps for a given id.
  [[nodiscard]] Tensor& residual(int64_t tensor_id, const Shape& shape);

  // grad += residual (the "feedback" half). No-op allocation-wise when the
  // residual is still zero-initialized.
  void AddInto(int64_t tensor_id, Tensor& grad);

  // residual = compressed_input − reconstruction (the "error" half), where
  // `compressed_input` is the tensor that was fed to the compressor (i.e.
  // gradient + previous residual).
  void Update(int64_t tensor_id, const Tensor& compressed_input,
              const Tensor& reconstruction);

  // Total elements held — the O(N) memory cost the paper notes.
  [[nodiscard]] int64_t total_elements() const noexcept;

  [[nodiscard]] size_t num_tensors() const noexcept { return residuals_.size(); }

 private:
  std::unordered_map<int64_t, Tensor> residuals_;
};

}  // namespace acps::compress
