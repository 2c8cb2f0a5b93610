// Compressor invariant oracles: the compressor contracts from the paper's
// §II-B / §IV-A (and the PowerSGD / gradient-compression-utility literature)
// as machine-checked properties, run for every spec the registry knows:
//
//   encode-into-parity   EncodeInto writes bit-for-bit what Encode returns
//                        (fresh instances, so stateful RNG streams align).
//   decode-determinism   Decode is a pure function of the blob: same blob →
//                        same bits, on the same and on a fresh instance.
//   ef-conservation      error-feedback residual + decoded gradient
//                        reconstructs the compressor input within a
//                        per-compressor float tolerance (mass conservation
//                        of the EF loop, DESIGN.md tolerance table).
//   rank-invariance      the trainer's compressed-aggregation pipeline
//                        (compress::CompressedAggregation) produces bitwise
//                        identical results on every rank, matching the
//                        compressor's Merge over the rank-ordered blobs —
//                        checked clean AND under the schedule explorer's
//                        perturbation, so comm nondeterminism is covered too.
//
// Failures carry compressor name, tensor shape, seed, and the violated
// property, so a red run is immediately reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/schedule.h"

namespace acps::check {

struct OracleOptions {
  std::vector<int64_t> numels = {1, 5, 33, 256, 1000};
  uint64_t seed = 0x0AC1Eull;
  int world_size = 3;
  // Perturbed repetitions of the rank-invariance oracle per shape (plus one
  // unperturbed run).
  int perturbed_runs = 10;
  double perturb_prob = 0.5;
};

struct OracleFailure {
  std::string compressor;  // registry spec, e.g. "qsgd:16"
  std::string property;    // which oracle
  int64_t numel = 0;
  uint64_t seed = 0;
  std::string detail;

  [[nodiscard]] std::string Describe() const;
};

struct OracleReport {
  int checks_run = 0;
  std::vector<OracleFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  [[nodiscard]] std::string Summary() const;
};

// Absolute-scale multiplier for the ef-conservation tolerance of `spec`
// (documented in DESIGN.md §6d; the residual is stored in fp32, so the
// property holds to rounding for every compressor — the per-compressor
// entries bound how much reconstruction magnitude amplifies that rounding).
[[nodiscard]] double EfTolerance(const std::string& spec);

// Runs all four oracles for one registry spec.
[[nodiscard]] OracleReport CheckCompressorInvariants(const std::string& spec,
                                                     const OracleOptions& opt);

// Runs the oracles for every spec in compress::KnownCompressors().
[[nodiscard]] OracleReport CheckAllRegisteredCompressors(
    const OracleOptions& opt);

// Determinism oracle for the acps::par compute kernels (DESIGN.md §6e):
// every kernel (GEMM family, Gemv, Axpy, Transpose, tensor reductions, sign
// and sampled-top-k encodes) must produce BITWISE identical results at
// thread counts 1, 2, 4 and 8, and the GEMM family must additionally match
// its single-threaded naive reference bit-for-bit. Restores the previous
// thread budget before returning.
[[nodiscard]] OracleReport CheckKernelThreadInvariance(
    const OracleOptions& opt);

}  // namespace acps::check
