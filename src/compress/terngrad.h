// TernGrad quantization (Wen et al., NeurIPS'17) — extension (cited in
// §II-B): each element becomes {-1, 0, +1} × max|g| with stochastic
// rounding, unbiased in expectation. Encoded as 2 bits per element.
#pragma once

#include "compress/compressor.h"
#include "tensor/rng.h"

namespace acps::compress {

class TernGradCompressor final : public Compressor {
 public:
  explicit TernGradCompressor(uint64_t seed = 0x7E56ull);

  [[nodiscard]] std::string name() const override { return "terngrad"; }

  void EncodeInto(std::span<const float> grad,
                  std::span<std::byte> out) override;

  void Decode(std::span<const std::byte> blob,
              std::span<float> out) const override;

  [[nodiscard]] bool biased() const override { return false; }

  [[nodiscard]] size_t EncodedBytes(size_t numel) const override {
    return sizeof(float) + sizeof(uint64_t) + (numel + 3) / 4;  // 2 bits/elem
  }

 private:
  Rng rng_;
};

}  // namespace acps::compress
