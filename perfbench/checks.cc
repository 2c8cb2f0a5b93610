#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>

namespace perfbench {
namespace {

int64_t SpecParam(const std::string& spec, int64_t fallback) {
  const size_t colon = spec.find(':');
  return colon == std::string::npos ? fallback
                                    : std::stoll(spec.substr(colon + 1));
}

}  // namespace

bool LowRank(const ParamShape& s, int64_t rank) {
  if (s.rows < 2 || s.cols < 2) return false;
  const int64_t r = std::min({rank, s.rows, s.cols});
  return r * (s.rows + s.cols) < s.rows * s.cols;
}

int64_t LowRankCount(const std::string& spec,
                     const std::vector<ParamShape>& shapes) {
  const std::string name = spec.substr(0, spec.find(':'));
  if (name != "powersgd" && name != "acpsgd") return 0;
  const int64_t rank = SpecParam(spec, 4);
  return std::count_if(shapes.begin(), shapes.end(),
                       [&](const ParamShape& s) { return LowRank(s, rank); });
}

uint64_t ExpectedWireBytes(const std::string& spec,
                           const std::vector<ParamShape>& shapes, int world,
                           uint64_t step) {
  const uint64_t p = static_cast<uint64_t>(world);
  if (p < 2) return 0;
  const auto ring_all_reduce = [p](uint64_t floats) {
    return 2 * (p - 1) * floats * sizeof(float);
  };
  const auto ring_all_gather = [p](uint64_t bytes) {
    return p * (p - 1) * bytes;
  };
  uint64_t total = 0;
  for (const auto& s : shapes) total += static_cast<uint64_t>(s.numel);

  const std::string name = spec.substr(0, spec.find(':'));
  if (name == "ssgd") return ring_all_reduce(total);
  if (name == "powersgd" || name == "acpsgd") {
    const int64_t rank = SpecParam(spec, 4);
    uint64_t bytes = 0;
    for (const auto& s : shapes) {
      if (!LowRank(s, rank)) {
        bytes += ring_all_reduce(static_cast<uint64_t>(s.numel));
        continue;
      }
      const auto r = static_cast<uint64_t>(std::min({rank, s.rows, s.cols}));
      const auto n = static_cast<uint64_t>(s.rows);
      const auto m = static_cast<uint64_t>(s.cols);
      // Power-SGD all-reduces P [n x r] and Q [m x r] every step; ACP-SGD
      // one of them, alternating.
      const uint64_t floats =
          name == "powersgd" ? r * (n + m) : r * (step % 2 == 1 ? n : m);
      bytes += ring_all_reduce(floats);
    }
    return bytes;
  }
  if (name == "topk") {
    // Header (k, numel as u64) + k records of (u32 index, f32 value).
    const auto k = static_cast<uint64_t>(
        TopkNonzeroLimit(spec, static_cast<int64_t>(total), 1));
    return ring_all_gather(16 + 8 * k);
  }
  if (name == "sign") {
    // Header (f32 scale, u64 numel) + one bit per element.
    return ring_all_gather(12 + (total + 7) / 8);
  }
  return 0;
}

std::string CheckMean(std::span<const float> out,
                      const std::vector<std::span<const float>>& inputs) {
  const double inv_p = 1.0 / static_cast<double>(inputs.size());
  for (size_t i = 0; i < out.size(); ++i) {
    double sum = 0.0, mag = 0.0;
    for (const auto& in : inputs) {
      sum += in[i];
      mag += std::fabs(in[i]);
    }
    const double want = sum * inv_p;
    // A float ring reduction adds p values and scales by 1/p: its error is
    // a few ulps of the magnitude sum.
    if (!(std::fabs(double(out[i]) - want) <= 1e-6 * mag + 1e-30)) {
      std::ostringstream os;
      os << "mean check: element " << i << " is " << out[i] << ", mean of "
         << "the ranks' inputs is " << want;
      return os.str();
    }
  }
  return "";
}

std::string CheckIdentical(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return "identity check: sizes differ";
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0)
    return "";
  size_t i = 0;
  while (std::memcmp(&a[i], &b[i], sizeof(float)) == 0) ++i;
  std::ostringstream os;
  os << "identity check: ranks differ at element " << i << " (" << a[i]
     << " vs " << b[i] << ")";
  return os.str();
}

int64_t TopkNonzeroLimit(const std::string& spec, int64_t numel, int world) {
  const size_t colon = spec.find(':');
  const double ratio =
      colon == std::string::npos ? 0.001 : std::stod(spec.substr(colon + 1));
  return world * std::max<int64_t>(1, std::llround(ratio * double(numel)));
}

int64_t CountNonzeros(std::span<const float> v) {
  return std::count_if(v.begin(), v.end(), [](float x) { return x != 0.0f; });
}

std::string CheckNonzerosAtMost(int64_t nonzeros, int64_t limit) {
  if (nonzeros <= limit) return "";
  return "top-k check: " + std::to_string(nonzeros) +
         " non-zeros, more than p*k = " + std::to_string(limit);
}

std::string CheckRankAtMost(std::span<const float> m, int64_t rows,
                            int64_t cols, int64_t rank, uint64_t seed) {
  const int64_t k = rank + 2;
  std::mt19937_64 gen(seed);
  std::normal_distribution<double> normal;
  std::vector<double> omega(static_cast<size_t>(cols * k));
  for (auto& x : omega) x = normal(gen);
  // Y = M * Omega, column-major [rows x k].
  std::vector<double> y(static_cast<size_t>(rows * k), 0.0);
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = m.data() + i * cols;
    for (int64_t j = 0; j < cols; ++j) {
      const double v = row[j];
      if (v == 0.0) continue;
      const double* o = omega.data() + j * k;
      for (int64_t c = 0; c < k; ++c) y[static_cast<size_t>(c * rows + i)] += v * o[c];
    }
  }
  double scale = 0.0;
  for (int64_t c = 0; c < k; ++c) {
    double s = 0.0;
    for (int64_t i = 0; i < rows; ++i) s += y[c * rows + i] * y[c * rows + i];
    scale = std::max(scale, std::sqrt(s));
  }
  if (scale == 0.0) return "";
  // Modified Gram-Schmidt, twice per column for stability.
  std::vector<int64_t> basis;
  for (int64_t c = 0; c < k; ++c) {
    double* col = y.data() + c * rows;
    for (int pass = 0; pass < 2; ++pass) {
      for (int64_t b : basis) {
        const double* q = y.data() + b * rows;
        double dot = 0.0;
        for (int64_t i = 0; i < rows; ++i) dot += q[i] * col[i];
        for (int64_t i = 0; i < rows; ++i) col[i] -= dot * q[i];
      }
    }
    double s = 0.0;
    for (int64_t i = 0; i < rows; ++i) s += col[i] * col[i];
    const double norm = std::sqrt(s);
    if (norm <= 1e-3 * scale) continue;
    for (int64_t i = 0; i < rows; ++i) col[i] /= norm;
    basis.push_back(c);
  }
  const auto kept = static_cast<int64_t>(basis.size());
  if (kept <= rank) return "";
  std::ostringstream os;
  os << "rank check: " << rows << "x" << cols << " output has numerical rank "
     << kept << " > " << rank;
  return os.str();
}

std::string CheckWireBytes(const std::string& spec, uint64_t measured,
                           uint64_t expected) {
  if (measured == expected) return "";
  std::ostringstream os;
  os << "wire check (" << spec << "): " << measured
     << " bytes on the wire in one step, shapes give " << expected;
  return os.str();
}

std::string CheckTrained(const std::string& spec, double final_loss,
                         double final_acc, int classes, double margin,
                         double target) {
  const double chance_loss = std::log(static_cast<double>(classes));
  std::ostringstream os;
  if (!std::isfinite(final_loss) || !(final_loss < chance_loss - margin)) {
    os << "training check (" << spec << "): final loss " << final_loss
       << " is not below ln " << classes << " - " << margin << " = "
       << chance_loss - margin;
    return os.str();
  }
  if (!(final_acc >= target)) {
    os << "training check (" << spec << "): final test accuracy "
       << final_acc << " is below the target " << target;
    return os.str();
  }
  return "";
}

}  // namespace perfbench
