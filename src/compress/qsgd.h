// QSGD quantization (Alistarh et al., NeurIPS'17) — extension beyond the
// paper's three representatives (the paper cites QSGD in §II-B).
//
// Each element is quantized to one of `levels` magnitude buckets of ‖g‖₂
// with stochastic rounding, making the quantizer *unbiased*:
// E[Decode(Encode(g))] = g. Encoded as one int8 per element (sign + level)
// plus the fp32 norm — 4× reduction at any level count ≤ 127.
#pragma once

#include "compress/compressor.h"
#include "tensor/rng.h"

namespace acps::compress {

class QsgdCompressor final : public Compressor {
 public:
  explicit QsgdCompressor(int levels, uint64_t seed = 0x05617Dull);

  [[nodiscard]] std::string name() const override { return "qsgd"; }

  void EncodeInto(std::span<const float> grad,
                  std::span<std::byte> out) override;

  void Decode(std::span<const std::byte> blob,
              std::span<float> out) const override;

  [[nodiscard]] bool biased() const override { return false; }

  [[nodiscard]] size_t EncodedBytes(size_t numel) const override {
    return sizeof(float) + sizeof(uint64_t) + numel;  // 1 byte per element
  }

  [[nodiscard]] int levels() const noexcept { return levels_; }

 private:
  int levels_;
  Rng rng_;
};

}  // namespace acps::compress
