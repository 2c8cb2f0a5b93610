// Random-k sparsification (Stich et al., NeurIPS'18).
//
// Keeps k uniformly chosen coordinates. When all workers share the seed for
// a given (tensor, step), the selected coordinates coincide, which — unlike
// Top-k — makes the compressed vectors additive and therefore all-reduce
// compatible: its wire shape is kAdditive, the value payload riding an
// in-place all-reduce. Encode stores only [seed][k][numel][values...]: the
// index set is re-derived from the seed on decode.
#pragma once

#include "compress/compressor.h"

namespace acps::compress {

class RandomkCompressor final : public Compressor {
 public:
  explicit RandomkCompressor(double ratio, uint64_t seed = 0x5EEDull);

  [[nodiscard]] std::string name() const override { return "randomk"; }

  // Advances the internal step counter; workers that construct the
  // compressor with the same seed and encode in lockstep select identical
  // coordinates.
  void EncodeInto(std::span<const float> grad,
                  std::span<std::byte> out) override;

  void Decode(std::span<const std::byte> blob,
              std::span<float> out) const override;

  [[nodiscard]] size_t EncodedBytes(size_t numel) const override;

  [[nodiscard]] size_t KeptCount(size_t numel) const;

  [[nodiscard]] bool biased() const override { return true; }

  [[nodiscard]] WireShape wire_shape() const override {
    return WireShape::kAdditive;
  }

  // The k values after the header; blobs with identical (seed, k, numel)
  // add element-wise.
  [[nodiscard]] std::span<float> AdditivePayload(
      std::span<std::byte> blob) const override;

  // Recomputes the index set encoded by `blob` (seed-derived): k distinct
  // indices from a partial Fisher–Yates walk over [0, numel) that keeps
  // only the O(k) swapped positions.
  [[nodiscard]] static std::vector<uint32_t> IndicesOf(
      std::span<const std::byte> blob);

 private:
  double ratio_;
  uint64_t seed_;
  uint64_t step_ = 0;
};

}  // namespace acps::compress
