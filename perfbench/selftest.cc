// Shows that every correctness check of the benchmark is live: each check
// first passes on real outputs of the five aggregators (a small 4-rank
// session), then must fail once the benchmark's own copy of the output it
// reads is corrupted. Exits 0 when every check behaves, 1 otherwise.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "comm/session.h"
#include "core/aggregators.h"
#include "tensor/rng.h"
#include "timed_aggregator.h"

namespace {

using namespace acps;
using namespace perfbench;

constexpr int kWorld = 4;
int g_bad = 0;

// A check must hold on the real output and fail on the corrupted one.
void Expect(const std::string& what, const std::string& on_real,
            const std::string& on_corrupted) {
  const bool ok = on_real.empty() && !on_corrupted.empty();
  if (!ok) ++g_bad;
  std::printf("%-34s %s\n", what.c_str(),
              ok ? "live (passes on real output, fails on corrupted)"
                 : "BROKEN");
  if (!on_real.empty()) std::printf("    real output failed: %s\n", on_real.c_str());
  if (on_corrupted.empty()) std::printf("    corrupted output passed\n");
}

// Index of the largest-magnitude element.
size_t ArgMaxAbs(const std::vector<float>& v) {
  size_t best = 0;
  for (size_t i = 1; i < v.size(); ++i)
    if (std::fabs(v[i]) > std::fabs(v[best])) best = i;
  return best;
}

}  // namespace

int main() {
  // Two matrices low-rank methods compress, plus vector parameters.
  const std::vector<ParamShape> shapes = {
      {64 * 48, 64, 48}, {64, 0, 0}, {32 * 27, 32, 27}, {10, 0, 0}};
  std::vector<std::unique_ptr<StepLog>> logs;
  for (size_t m = 0; m < Methods().size(); ++m)
    logs.push_back(std::make_unique<StepLog>(kWorld, /*sample_every=*/1));

  comm::Transport transport;
  comm::Session session(transport, "selftest", kWorld);
  session.Run([&](comm::Communicator& comm) {
    std::vector<dnn::Param> params(shapes.size());
    std::vector<dnn::Param*> ptrs;
    for (size_t i = 0; i < shapes.size(); ++i) {
      params[i].name = "p" + std::to_string(i);
      params[i].matrix_rows = shapes[i].rows;
      params[i].matrix_cols = shapes[i].cols;
      params[i].grad = shapes[i].rows > 0 ? Tensor({shapes[i].rows, shapes[i].cols})
                                          : Tensor({shapes[i].numel});
      ptrs.push_back(&params[i]);
    }
    Rng rng = Rng(17).split(static_cast<uint64_t>(comm.rank()));
    for (size_t m = 0; m < Methods().size(); ++m) {
      auto agg = Timed(core::MakeAggregatorFactory(Methods()[m]),
                       logs[m].get())(comm.rank(), kWorld);
      for (int step = 0; step < 2; ++step) {
        for (auto* p : ptrs)
          for (float& x : p->grad.data()) x = rng.normal();
        agg->Aggregate(ptrs, comm);
      }
    }
  });

  for (size_t m = 0; m < Methods().size(); ++m) {
    const std::string& spec = Methods()[m];
    const std::string key = MethodKey(spec);
    const StepLog& log = *logs[m];
    const std::vector<float>& out0 = log.out[0][0];

    std::vector<float> other = log.out[1][0];
    other[7] = std::nextafter(other[7], 1e30f);
    Expect(key + ": ranks identical", CheckIdentical(out0, log.out[1][0]),
           CheckIdentical(out0, other));

    for (uint64_t step = 1; step <= 2; ++step) {
      uint64_t bytes = 0;
      for (const auto& b : log.bytes) bytes += b[step - 1];
      const uint64_t want = ExpectedWireBytes(spec, log.shapes, kWorld, step);
      Expect(key + ": wire bytes, step " + std::to_string(step),
             CheckWireBytes(spec, bytes, want),
             CheckWireBytes(spec, bytes + 4, want));
    }

    if (key == "ssgd") {
      std::vector<std::span<const float>> inputs;
      for (const auto& in : log.in) inputs.emplace_back(in[0]);
      std::vector<float> bad = out0;
      bad[ArgMaxAbs(bad)] *= -1.0f;
      Expect(key + ": mean of inputs", CheckMean(out0, inputs),
             CheckMean(bad, inputs));
    }
    if (key == "topk") {
      int64_t total = 0;
      for (const auto& s : log.shapes) total += s.numel;
      const int64_t limit = TopkNonzeroLimit(spec, total, kWorld);
      std::vector<float> bad = out0;
      int64_t nz = CountNonzeros(bad);
      for (float& x : bad) {
        if (nz > limit) break;
        if (x == 0.0f) {
          x = 1.0f;
          ++nz;
        }
      }
      Expect(key + ": at most p*k non-zeros",
             CheckNonzerosAtMost(CountNonzeros(out0), limit),
             CheckNonzerosAtMost(CountNonzeros(bad), limit));
    }
    if (key == "powersgd" || key == "acpsgd") {
      int64_t off = 0;
      for (const ParamShape& s : log.shapes) {
        if (LowRank(s, 4)) {
          std::vector<float> mat(out0.begin() + off, out0.begin() + off + s.numel);
          std::vector<float> bad = mat;
          bad[ArgMaxAbs(bad)] *= -1.0f;
          Expect(key + ": rank <= 4 (" + std::to_string(s.rows) + "x" +
                     std::to_string(s.cols) + ")",
                 CheckRankAtMost(mat, s.rows, s.cols, 4, 99),
                 CheckRankAtMost(bad, s.rows, s.cols, 4, 99));
        }
        off += s.numel;
      }
    }
  }

  // The training outcome check reads the job's final loss and accuracy.
  const double chance = std::log(10.0);
  Expect("training: loss below ln C - margin",
         CheckTrained("ssgd", 0.3, 0.9, 10, 0.5, 0.6),
         CheckTrained("ssgd", chance, 0.9, 10, 0.5, 0.6));
  Expect("training: loss finite", CheckTrained("ssgd", 0.3, 0.9, 10, 0.5, 0.6),
         CheckTrained("ssgd", std::nan(""), 0.9, 10, 0.5, 0.6));
  Expect("training: accuracy at target",
         CheckTrained("ssgd", 0.3, 0.9, 10, 0.5, 0.6),
         CheckTrained("ssgd", 0.3, 0.59, 10, 0.5, 0.6));

  std::printf("%s\n", g_bad == 0 ? "selftest: every check is live"
                                 : "selftest: FAILED");
  return g_bad == 0 ? 0 : 1;
}
