// Top-k sparsification (Lin et al. DGC; Shi et al. MLSys'21 variant).
//
// Selection is the paper's "multiple sampling" scheme: pick a magnitude
// threshold that keeps ≈ k elements, then take elements above it (trimming
// or padding to exactly k so encoded size stays fixed). The threshold comes
// from one 4096-bucket histogram that buckets |g| directly by IEEE bit
// pattern — no max/range pass needed, so selection is 2 data passes total
// (histogram + gather). It keeps the same set as exact top-k up to ties at
// the k-th magnitude; SelectExact (nth_element, the definitional reference)
// and the original ~25-pass binary search (SelectSampledBinarySearch) stay
// public for parity tests and bench_kernels.
//
// Encode: [k][numel][(index, value) × k]. Selected values are the raw
// gradient entries; aggregation is all-gather + scatter-add-average (Top-k
// results from different workers have different coordinates, so they are not
// additive — the paper's §III-C incompatibility).
#pragma once

#include "compress/compressor.h"

namespace acps::compress {

class TopkCompressor final : public Compressor {
 public:
  // `ratio` is the kept fraction (the paper uses 0.001); at least one
  // element is always kept for non-empty inputs.
  explicit TopkCompressor(double ratio);

  [[nodiscard]] std::string name() const override { return "topk"; }

  void EncodeInto(std::span<const float> grad,
                  std::span<std::byte> out) override;

  void Decode(std::span<const std::byte> blob,
              std::span<float> out) const override;

  [[nodiscard]] size_t EncodedBytes(size_t numel) const override;

  [[nodiscard]] size_t KeptCount(size_t numel) const;

  [[nodiscard]] bool biased() const override { return true; }

  // Scatter-add-average: out = Σ_w blob_w / |blobs|, in rank order.
  void Merge(BlobList blobs, std::span<float> out) const override;

  // Scatter-adds `blob / num_workers` into `out` (without zeroing `out`).
  static void AccumulateInto(std::span<const std::byte> blob,
                             std::span<float> out, int num_workers);

  // Data passes over the gradient made by the last EncodeInto's threshold
  // selection (reset each call; 0 for an empty gradient).
  [[nodiscard]] int last_threshold_passes() const noexcept {
    return last_threshold_passes_;
  }

  // The pre-histogram multi-pass scheme (one counting pass per binary-search
  // probe). Public so bench_kernels can measure histogram vs binary search.
  [[nodiscard]] std::vector<uint32_t> SelectSampledBinarySearch(
      std::span<const float> grad, size_t k);

  // The definitional reference: true top-k by magnitude via nth_element over
  // all n candidates. Public as the naive baseline of bench_kernels' topk
  // case (the paper's premise is that exact selection is too slow at scale).
  [[nodiscard]] std::vector<uint32_t> SelectExact(std::span<const float> grad,
                                                  size_t k) const;

 private:
  [[nodiscard]] std::vector<uint32_t> SelectSampled(std::span<const float> grad,
                                                    size_t k);

  double ratio_;
  int last_threshold_passes_ = 0;
};

}  // namespace acps::compress
