// FP16 compression — the trivial 2× baseline (half-precision cast with
// round-to-nearest-even), included as an extension point and as a sanity
// reference in benches/tests. No external half type: conversion is done by
// bit manipulation so the library stays dependency-free.
#pragma once

#include "compress/compressor.h"

namespace acps::compress {

// Scalar conversions (exposed for tests).
[[nodiscard]] uint16_t FloatToHalf(float f);
[[nodiscard]] float HalfToFloat(uint16_t h);

class Fp16Compressor final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "fp16"; }

  void EncodeInto(std::span<const float> grad,
                  std::span<std::byte> out) override;

  void Decode(std::span<const std::byte> blob,
              std::span<float> out) const override;

  [[nodiscard]] bool biased() const override { return true; }

  [[nodiscard]] size_t EncodedBytes(size_t numel) const override {
    return sizeof(uint64_t) + numel * sizeof(uint16_t);
  }
};

}  // namespace acps::compress
