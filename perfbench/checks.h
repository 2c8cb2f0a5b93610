// Correctness checks the benchmark runs on the program's outputs. Each
// check is computed independently of the library (double-precision
// references, shape arithmetic restated from the methods' definitions) and
// returns "" when it holds, otherwise a message naming the violation.
// selftest.cc corrupts inputs to every check and asserts that it fails.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// One parameter as the aggregators see it: element count plus the 2-D
// view low-rank methods compress (rows = cols = 0 for vector parameters).
struct ParamShape {
  int64_t numel = 0;
  int64_t rows = 0;
  int64_t cols = 0;
};

// Whether a low-rank method at `rank` compresses this parameter: a matrix
// whose factors r(n+m), r = min(rank, n, m), are smaller than n*m.
bool LowRank(const ParamShape& shape, int64_t rank);

// Parameters a low-rank spec ("powersgd:R", "acpsgd:R") compresses; 0 for
// every other spec.
int64_t LowRankCount(const std::string& spec,
                     const std::vector<ParamShape>& shapes);

// Bytes all ranks of a `world`-rank session put on the wire in one
// aggregation step of `spec`, derived from the shapes and each method's wire
// format. `step` is the aggregator's 1-based step (ACP-SGD sends P on odd
// steps, Q on even ones).
//   ring all-reduce of n floats:  2(p-1) n * 4 bytes in total
//   ring all-gather of b bytes:   p(p-1) b bytes in total
uint64_t ExpectedWireBytes(const std::string& spec,
                           const std::vector<ParamShape>& shapes, int world,
                           uint64_t step);

// out[i] must equal the mean of inputs[r][i] (computed in double) within a
// float rounding tolerance.
std::string CheckMean(std::span<const float> out,
                      const std::vector<std::span<const float>>& inputs);

// Bitwise equality of two ranks' aggregated gradients.
std::string CheckIdentical(std::span<const float> a, std::span<const float> b);

// Top-k ("topk:R") keeps k = max(1, round(R * numel)) elements per rank, so
// the merged gradient of `world` ranks has at most world * k non-zeros.
int64_t TopkNonzeroLimit(const std::string& spec, int64_t numel, int world);

int64_t CountNonzeros(std::span<const float> v);
std::string CheckNonzerosAtMost(int64_t nonzeros, int64_t limit);

// Numerical rank of the rows x cols matrix `m` is at most `rank`: the
// columns of m * Omega (Omega Gaussian, rank + 2 columns) are
// Gram-Schmidt'ed in double and at most `rank` keep a residual above 1e-3
// of the largest column.
std::string CheckRankAtMost(std::span<const float> m, int64_t rows,
                            int64_t cols, int64_t rank, uint64_t seed);

std::string CheckWireBytes(const std::string& spec, uint64_t measured,
                           uint64_t expected);

// A finished training job: finite final loss below ln(classes) - margin and
// final test accuracy at or above `target`.
std::string CheckTrained(const std::string& spec, double final_loss,
                         double final_acc, int classes, double margin,
                         double target);

}  // namespace perfbench
