// Power-SGD (Vogels et al., NeurIPS'19) — the paper's Algorithm 1.
//
// One step of subspace power iteration per optimizer step, with query reuse
// (Q carries over between steps) and error feedback:
//
//   P ← (M + E) · Q_prev          (compute P)
//   P ← AllReduce-mean(P)         (aggregate P)   <-- BLOCKS the next line
//   P ← Orthogonalize(P)
//   Q ← (M + E)ᵀ · P              (compute Q)
//   Q ← AllReduce-mean(Q)         (aggregate Q)
//   M̂ = P · Qᵀ ;  E ← (M + E) − M̂
//
// The interleaved compute→aggregate→compute→aggregate chain is exactly the
// blocking structure §III-C identifies as WFBP-hostile; ACP-SGD (acpsgd.h)
// removes it. Communication is injected via a callback so the algorithm is
// agnostic to the transport (thread cluster, or single-process for tests).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "compress/compressor.h"  // AllReduceMeanFn
#include "linalg/orthogonalize.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace acps::compress {

struct PowerSgdConfig {
  int64_t rank = 4;
  OrthoScheme ortho = OrthoScheme::kQr;  // paper uses reduced QR
  bool error_feedback = true;
  uint64_t seed = 0xB0B5ull;  // must be identical on all workers
};

// Decides whether a tensor should go through low-rank compression at all:
// matrices whose low-rank factors are actually smaller than the matrix.
// Vector-shaped parameters (biases etc.) are aggregated uncompressed
// (paper §IV-C).
[[nodiscard]] bool LowRankWorthwhile(const Shape& shape, int64_t rank);

// Effective rank for an n×m matrix: min(rank, n, m).
[[nodiscard]] int64_t EffectiveRank(int64_t n, int64_t m, int64_t rank);

class PowerSgd {
 public:
  explicit PowerSgd(PowerSgdConfig config);

  // Runs one Power-SGD step on gradient matrix `m` (2-D), replacing it with
  // the aggregated, decompressed gradient P·Qᵀ. `tensor_id` keys the
  // persistent per-tensor state (Q and the EF residual); all workers must
  // use the same ids and construct PowerSgd with the same config/seed.
  void Step(int64_t tensor_id, Tensor& m, const AllReduceMeanFn& allreduce);

  [[nodiscard]] const PowerSgdConfig& config() const noexcept { return config_; }

  // Encoded elements communicated per step for an n×m matrix: r(n+m)
  // (both factors).
  [[nodiscard]] int64_t CommElements(int64_t n, int64_t m) const;

  // Elastic-membership state resync: mutable views of the persistent
  // per-tensor state for an n×m matrix, creating it (Q seeded, E zero) if
  // absent. `factor_q` is the reused query factor [m×r_eff] — identical
  // across ranks (it is all-reduced every step), so a rejoining rank adopts
  // a live donor's broadcast replica and query reuse stays bitwise aligned.
  // `residual_e` is this rank's own EF residual [n×m] — per-rank state that
  // a rejoiner restores from its escrowed snapshot, never from a donor.
  [[nodiscard]] std::span<float> factor_q(int64_t tensor_id, int64_t n,
                                          int64_t m);
  [[nodiscard]] std::span<float> residual_e(int64_t tensor_id, int64_t n,
                                            int64_t m);

 private:
  struct State {
    Tensor q;  // [m×r], carried across steps (query reuse)
    Tensor e;  // [n×m], error-feedback residual
  };

  State& state_for(int64_t tensor_id, int64_t n, int64_t m, int64_t r);

  PowerSgdConfig config_;
  std::unordered_map<int64_t, State> states_;
};

}  // namespace acps::compress
