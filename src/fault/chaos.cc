#include "fault/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "comm/communicator.h"
#include "comm/group_ops.h"
#include "comm/hierarchical.h"
#include "compress/acpsgd.h"
#include "compress/aggregation.h"
#include "compress/powersgd.h"
#include "compress/sign.h"
#include "compress/topk.h"
#include "fault/plan.h"
#include "tensor/check.h"

namespace acps::fault {
namespace {

// ---------------------------------------------------------------------------
// Deterministic inputs. Multiples of 0.25 keep the exact-arithmetic parts of
// the pipelines exactly representable; bitwise oracles never rely on it, but
// it keeps diffs readable.
// ---------------------------------------------------------------------------

float GradValue(int rank, int64_t i, int step = 0) {
  return static_cast<float>(((i * 7 + rank * 13 + step * 29) % 19) - 9) *
         0.25f;
}

std::vector<std::byte> FloatsToBytes(std::span<const float> v) {
  std::vector<std::byte> out(v.size() * sizeof(float));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

void AppendBytes(std::vector<std::byte>& slot, std::span<const float> v) {
  const auto b = FloatsToBytes(v);
  slot.insert(slot.end(), b.begin(), b.end());
}

// The one-shot compressor of a gather method (Top-k keeps a quarter).
std::unique_ptr<compress::Compressor> OneShot(ChaosMethod m) {
  if (m == ChaosMethod::kTopk)
    return std::make_unique<compress::TopkCompressor>(0.25);
  return std::make_unique<compress::SignCompressor>();
}

// The wire payload a method would put on this collective: the compressed
// representation (decoded back to floats so every collective can carry it),
// deterministic per (method, rank).
std::vector<float> MethodPayload(ChaosMethod m, int rank, int64_t n) {
  ACPS_CHECK_MSG(n % 6 == 0, "chaos payload numel must be divisible by 6");
  std::vector<float> g(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    g[static_cast<size_t>(i)] = GradValue(rank, i);
  switch (m) {
    case ChaosMethod::kSign:
    case ChaosMethod::kTopk: {
      const auto c = OneShot(m);
      std::vector<float> out(g.size());
      c->Decode(c->Encode(g), out);
      return out;
    }
    case ChaosMethod::kAcpSgd: {
      compress::AcpSgdConfig cfg;
      cfg.rank = 2;
      compress::AcpSgd acp(cfg);
      Tensor mat({6, n / 6});
      std::copy(g.begin(), g.end(), mat.data().begin());
      const std::span<float> factor = acp.LocalStep(0, mat);
      // Factor first (the bytes ACP-SGD actually communicates), gradient
      // values as filler to reach the collective's payload size.
      std::vector<float> out = g;
      const size_t k = std::min(out.size(), factor.size());
      std::copy(factor.begin(), factor.begin() + static_cast<ptrdiff_t>(k),
                out.begin());
      return out;
    }
    case ChaosMethod::kPowerSgd: {
      compress::PowerSgdConfig cfg;
      cfg.rank = 2;
      compress::PowerSgd psgd(cfg);
      Tensor mat({6, n / 6});
      std::copy(g.begin(), g.end(), mat.data().begin());
      // Local (single-worker) step: the identity "all-reduce" makes the
      // low-rank reconstruction P·Qᵀ the payload.
      psgd.Step(0, mat, [](std::span<float>) {});
      return {mat.data().begin(), mat.data().end()};
    }
  }
  return g;
}

// Shared tail of both workloads: run `body` on a fresh group and fold the
// outcome (outputs, crash record, error classification) into a ChaosRun.
ChaosRun RunGroup(int world_size,
                  const std::function<void(comm::Communicator&, ChaosRun&)>& body,
                  bool with_ef_gap = false) {
  ChaosRun run;
  run.outputs.assign(static_cast<size_t>(world_size), {});
  if (with_ef_gap) run.ef_gap.assign(static_cast<size_t>(world_size), 0.0);
  comm::Transport transport;
  comm::Session group(transport, "", world_size);
  try {
    group.Run([&](comm::Communicator& comm) { body(comm, run); });
  } catch (const DetectedError& e) {
    run.error = e.what();
    run.detected = true;
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.crashed = group.crashed_ranks();
  return run;
}

std::string DescribeByteDiff(const std::vector<std::byte>& want,
                             const std::vector<std::byte>& got) {
  std::ostringstream oss;
  if (want.size() != got.size()) {
    oss << "size " << got.size() << " != expected " << want.size();
    return oss.str();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      oss << "first diff at byte " << i;
      const size_t fi = i / sizeof(float);
      if ((want.size() % sizeof(float)) == 0) {
        float fw = 0.0f;
        float fg = 0.0f;
        std::memcpy(&fw, want.data() + fi * sizeof(float), sizeof(float));
        std::memcpy(&fg, got.data() + fi * sizeof(float), sizeof(float));
        oss << " (element " << fi << ": expected " << fw << ", got " << fg
            << ")";
      }
      return oss.str();
    }
  }
  return "";
}

std::string JoinRanks(const std::vector<int>& ranks) {
  std::ostringstream oss;
  for (size_t i = 0; i < ranks.size(); ++i)
    oss << (i != 0 ? "," : "") << ranks[i];
  return oss.str();
}

// Classifies a faulted run against its fault-free baseline. `crash_rank`
// is < 0 for wire-fault cases (which must reproduce the baseline bits) and
// the expected dead rank for crash cases (which must complete consistently
// over the survivors instead). `rank_invariant` says whether all (surviving)
// ranks must hold identical bytes.
ChaosCaseResult Classify(const ChaosRun& baseline, const ChaosRun& run,
                         int crash_rank, bool rank_invariant) {
  ChaosCaseResult result;
  if (run.detected) {
    result.outcome = ChaosOutcome::kDetected;
    result.detail = run.error;
    return result;
  }
  if (!run.error.empty()) {
    result.outcome = ChaosOutcome::kSilentCorruption;
    result.detail = "unstructured failure: " + run.error;
    return result;
  }
  const int p = static_cast<int>(run.outputs.size());
  if (crash_rank >= 0) {
    if (run.crashed != std::vector<int>{crash_rank}) {
      result.outcome = ChaosOutcome::kSilentCorruption;
      result.detail =
          "expected exactly rank " + std::to_string(crash_rank) +
          " to crash, got [" + JoinRanks(run.crashed) + "]";
      return result;
    }
    if (rank_invariant) {
      int first = crash_rank == 0 ? 1 : 0;
      for (int r = first + 1; r < p; ++r) {
        if (r == crash_rank) continue;
        if (run.outputs[static_cast<size_t>(r)] !=
            run.outputs[static_cast<size_t>(first)]) {
          result.outcome = ChaosOutcome::kSilentCorruption;
          result.detail =
              "survivors diverged: rank " + std::to_string(r) + " vs rank " +
              std::to_string(first) + ": " +
              DescribeByteDiff(run.outputs[static_cast<size_t>(first)],
                               run.outputs[static_cast<size_t>(r)]);
          return result;
        }
      }
    }
    for (size_t r = 0; r < run.ef_gap.size(); ++r) {
      if (static_cast<int>(r) == crash_rank) continue;
      if (!(run.ef_gap[r] < 1e-3)) {
        result.outcome = ChaosOutcome::kSilentCorruption;
        result.detail = "error-feedback mass not conserved on rank " +
                        std::to_string(r) +
                        ": gap = " + std::to_string(run.ef_gap[r]);
        return result;
      }
    }
    result.outcome = ChaosOutcome::kRecovered;
    result.detail = "completed with " + std::to_string(p - 1) +
                    " survivors after rank " + std::to_string(crash_rank) +
                    " fail-stopped";
    return result;
  }
  for (int r = 0; r < p; ++r) {
    if (run.outputs[static_cast<size_t>(r)] !=
        baseline.outputs[static_cast<size_t>(r)]) {
      result.outcome = ChaosOutcome::kSilentCorruption;
      result.detail =
          "rank " + std::to_string(r) + " diverged from fault-free bits: " +
          DescribeByteDiff(baseline.outputs[static_cast<size_t>(r)],
                           run.outputs[static_cast<size_t>(r)]);
      return result;
    }
  }
  for (size_t r = 0; r < run.ef_gap.size(); ++r) {
    if (!(run.ef_gap[r] < 1e-3)) {
      result.outcome = ChaosOutcome::kSilentCorruption;
      result.detail = "error-feedback mass not conserved on rank " +
                      std::to_string(r) +
                      ": gap = " + std::to_string(run.ef_gap[r]);
      return result;
    }
  }
  result.outcome = ChaosOutcome::kRecovered;
  result.detail = "bitwise identical to the fault-free run";
  return result;
}

// Builds the FaultPlan for one matrix cell. Wire kinds use `rate`; crash is
// deterministic; stragglers ride the entry site. `rate` has already been
// escalated across seed bumps (see RunPlannedCase) — workloads with very few
// events (broadcast publishes once) converge to rate 1.0, which is still a
// valid plan because plans only fire on attempt 0.
FaultPlanConfig PlanFor(FaultKind kind, uint64_t seed, double rate,
                        const ChaosOptions& opt, uint64_t crash_at) {
  FaultPlanConfig cfg;
  cfg.seed = seed;
  switch (kind) {
    case FaultKind::kDrop:
    case FaultKind::kDuplicate:
    case FaultKind::kStaleRead:
    case FaultKind::kCorrupt:
      cfg.kind = kind;
      cfg.rate = rate;
      break;
    case FaultKind::kStraggler:
      cfg.kind = kind;
      cfg.rate = std::max(rate, 0.5);  // few entry events per run
      cfg.straggler_ticks = opt.straggler_ticks;
      break;
    case FaultKind::kCrash:
      cfg.crash_rank = opt.crash_rank >= 0 ? opt.crash_rank
                                           : opt.world_size - 1;
      cfg.crash_at_collective = crash_at;
      break;
    case FaultKind::kNone:
      break;
  }
  return cfg;
}

std::string CaseName(FaultKind kind, const std::string& workload,
                     ChaosMethod m) {
  return std::string(ToString(kind)) + " x " + workload + " x " + ToString(m);
}

// Seed-bump loop shared by both matrices: a plan that never fired proves
// nothing, so retry with deterministically bumped seeds before reporting
// kNoInjection.
ChaosCaseResult RunPlannedCase(FaultKind kind, const std::string& workload,
                               ChaosMethod m, const ChaosOptions& opt,
                               uint64_t crash_at, bool rank_invariant,
                               const ChaosRun& baseline,
                               const std::function<ChaosRun()>& faulted) {
  ChaosCaseResult result;
  result.name = CaseName(kind, workload, m);
  const int expected_crash =
      kind == FaultKind::kCrash
          ? (opt.crash_rank >= 0 ? opt.crash_rank : opt.world_size - 1)
          : -1;
  for (int bump = 0; bump <= opt.max_seed_bumps; ++bump) {
    const uint64_t seed = opt.seed + 0x9E37ull * static_cast<uint64_t>(bump);
    const double rate =
        std::min(1.0, opt.rate * static_cast<double>(bump + 1));
    FaultPlan plan(PlanFor(kind, seed, rate, opt, crash_at));
    ChaosRun run;
    {
      ScopedFaultInjector install(&plan);
      run = faulted();
    }
    if (plan.injected() == 0) continue;  // bump the seed, try again
    result = Classify(baseline, run, expected_crash, rank_invariant);
    result.name = CaseName(kind, workload, m);
    result.injected = plan.injected();
    result.seed_used = seed;
    return result;
  }
  result.outcome = ChaosOutcome::kNoInjection;
  result.detail = "plan never fired after " +
                  std::to_string(opt.max_seed_bumps + 1) + " seeds";
  return result;
}

}  // namespace

const char* ToString(ChaosCollective c) noexcept {
  switch (c) {
    case ChaosCollective::kAllReduceRing: return "all_reduce[ring]";
    case ChaosCollective::kAllGather: return "all_gather";
    case ChaosCollective::kReduceScatter: return "reduce_scatter";
    case ChaosCollective::kBroadcast: return "broadcast";
    case ChaosCollective::kHierarchical: return "hierarchical";
  }
  return "unknown";
}

const char* ToString(ChaosMethod m) noexcept {
  switch (m) {
    case ChaosMethod::kAcpSgd: return "acpsgd";
    case ChaosMethod::kPowerSgd: return "powersgd";
    case ChaosMethod::kTopk: return "topk";
    case ChaosMethod::kSign: return "signsgd";
  }
  return "unknown";
}

const char* ToString(ChaosOutcome o) noexcept {
  switch (o) {
    case ChaosOutcome::kRecovered: return "RECOVERED";
    case ChaosOutcome::kDetected: return "DETECTED";
    case ChaosOutcome::kSilentCorruption: return "SILENT-CORRUPTION";
    case ChaosOutcome::kNoInjection: return "NO-INJECTION";
  }
  return "unknown";
}

std::vector<ChaosCollective> AllChaosCollectives() {
  return {ChaosCollective::kAllReduceRing, ChaosCollective::kAllGather,
          ChaosCollective::kReduceScatter, ChaosCollective::kBroadcast,
          ChaosCollective::kHierarchical};
}

std::vector<ChaosMethod> AllChaosMethods() {
  return {ChaosMethod::kAcpSgd, ChaosMethod::kPowerSgd, ChaosMethod::kTopk,
          ChaosMethod::kSign};
}

std::vector<FaultKind> AllInjectableFaultKinds() {
  return {FaultKind::kDrop,    FaultKind::kDuplicate, FaultKind::kStaleRead,
          FaultKind::kCorrupt, FaultKind::kStraggler, FaultKind::kCrash};
}

std::string ChaosCaseResult::Summary() const {
  std::ostringstream oss;
  oss << name << ": " << ToString(outcome) << " (injected=" << injected
      << ", seed=" << seed_used << ")";
  if (!detail.empty()) oss << " — " << detail;
  return oss.str();
}

ChaosRun RunCollectiveWorkload(ChaosCollective c, ChaosMethod m,
                               const ChaosOptions& opt) {
  const int p = opt.world_size;
  const int64_t n = opt.numel;
  return RunGroup(p, [&](comm::Communicator& comm, ChaosRun& run) {
    const int r = comm.rank();
    std::vector<float> data = MethodPayload(m, r, n);
    auto& slot = run.outputs[static_cast<size_t>(r)];
    switch (c) {
      case ChaosCollective::kAllReduceRing:
        comm.all_reduce(data);
        slot = FloatsToBytes(data);
        break;
      case ChaosCollective::kAllGather: {
        std::vector<float> recv(data.size() * static_cast<size_t>(p));
        comm.all_gather(data, recv);
        slot = FloatsToBytes(recv);
        break;
      }
      case ChaosCollective::kReduceScatter: {
        comm.reduce_scatter(data);
        // Own chunk under the *alive* chunking the collective actually used.
        const auto& alive = comm.alive_ranks();
        const auto it = std::find(alive.begin(), alive.end(), r);
        if (it != alive.end()) {
          const auto rc = comm::GetChunkRange(
              n, comm.alive_world_size(),
              static_cast<int>(it - alive.begin()));
          slot = FloatsToBytes(std::span<const float>(data).subspan(
              static_cast<size_t>(rc.begin), static_cast<size_t>(rc.size())));
        }
        break;
      }
      case ChaosCollective::kBroadcast:
        comm.broadcast(data, /*root=*/0);
        slot = FloatsToBytes(data);
        break;
      case ChaosCollective::kHierarchical:
        comm::HierarchicalAllReduce(comm, data, p % 2 == 0 ? 2 : p);
        slot = FloatsToBytes(data);
        break;
    }
  });
}

ChaosRun RunTrainingWorkload(ChaosMethod m, const ChaosOptions& opt) {
  const int p = opt.world_size;
  const int steps = opt.steps;
  const bool with_ef_gap =
      m == ChaosMethod::kTopk || m == ChaosMethod::kSign;
  ChaosRun run = RunGroup(p, [&](comm::Communicator& comm, ChaosRun& out) {
    const int r = comm.rank();
    Tensor w({8, 12});
    Tensor b({10});
    {
      int64_t i = 0;
      for (Tensor* t : {&w, &b})
        for (float& v : t->data())
          v = static_cast<float>(((i++ * 3 + 5) % 11) - 5) * 0.5f;
    }
    Tensor wg({8, 12});
    Tensor bg({10});

    compress::AcpSgdConfig acp_cfg;
    acp_cfg.rank = 2;
    compress::AcpSgd acp(acp_cfg);
    compress::PowerSgdConfig psgd_cfg;
    psgd_cfg.rank = 2;
    compress::PowerSgd psgd(psgd_cfg);
    // Top-k and Sign run the trainer's compressed-aggregation pipeline.
    compress::CompressedAggregation pipeline(OneShot(m));

    // EF conservation ledgers (pipeline EF methods only): per element, sum
    // of raw gradients fed in and sum of own-blob reconstructions.
    std::vector<double> grad_mass;
    std::vector<double> recon_mass;
    if (with_ef_gap) {
      grad_mass.assign(static_cast<size_t>(w.numel() + b.numel()), 0.0);
      recon_mass.assign(grad_mass.size(), 0.0);
    }

    const compress::GroupOps ops = comm::GroupOpsOf(comm);
    const auto aggregate = [&](int64_t id, Tensor& grad, int64_t mass_base) {
      for (int64_t i = 0; i < grad.numel(); ++i)
        grad_mass[static_cast<size_t>(mass_base + i)] +=
            static_cast<double>(grad.data()[static_cast<size_t>(i)]);
      pipeline.Aggregate(id, grad, ops);
      const std::span<const float> recon = pipeline.own_reconstruction();
      for (size_t i = 0; i < recon.size(); ++i)
        recon_mass[static_cast<size_t>(mass_base) + i] +=
            static_cast<double>(recon[i]);
    };

    for (int s = 0; s < steps; ++s) {
      int64_t i = 0;
      for (Tensor* t : {&wg, &bg})
        for (float& gv : t->data()) gv = GradValue(r, i++, s);

      switch (m) {
        case ChaosMethod::kAcpSgd: {
          const std::span<float> factor = acp.LocalStep(0, wg);
          ops.all_reduce_mean(factor);
          acp.Finish(0, wg);
          ops.all_reduce_mean(bg.data());
          break;
        }
        case ChaosMethod::kPowerSgd:
          psgd.Step(0, wg, ops.all_reduce_mean);
          ops.all_reduce_mean(bg.data());
          break;
        case ChaosMethod::kTopk:
        case ChaosMethod::kSign:
          aggregate(0, wg, 0);
          aggregate(1, bg, w.numel());
          break;
      }
      for (int64_t j = 0; j < w.numel(); ++j)
        w.data()[static_cast<size_t>(j)] -=
            0.1f * wg.data()[static_cast<size_t>(j)];
      for (int64_t j = 0; j < b.numel(); ++j)
        b.data()[static_cast<size_t>(j)] -=
            0.1f * bg.data()[static_cast<size_t>(j)];
    }

    auto& slot = out.outputs[static_cast<size_t>(r)];
    AppendBytes(slot, w.data());
    AppendBytes(slot, b.data());
    if (with_ef_gap) {
      // Telescoping invariant: sum(grad) == sum(reconstruction) + residual.
      double gap = 0.0;
      size_t at = 0;
      for (const Tensor* g : {&wg, &bg}) {
        const Tensor& residual =
            pipeline.error_feedback().residual(g == &wg ? 0 : 1, g->shape());
        for (const float res : residual.data()) {
          gap = std::max(gap, std::abs(grad_mass[at] - recon_mass[at] -
                                       static_cast<double>(res)));
          ++at;
        }
      }
      out.ef_gap[static_cast<size_t>(r)] = gap;
    }
  }, with_ef_gap);
  return run;
}

ChaosCaseResult RunCollectiveChaos(FaultKind kind, ChaosCollective c,
                                   ChaosMethod m, const ChaosOptions& opt) {
  const ChaosRun baseline = RunCollectiveWorkload(c, m, opt);
  const bool rank_invariant = c != ChaosCollective::kReduceScatter;
  return RunPlannedCase(
      kind, ToString(c), m, opt, opt.crash_at_collective, rank_invariant,
      baseline, [&] { return RunCollectiveWorkload(c, m, opt); });
}

ChaosCaseResult RunTrainingChaos(FaultKind kind, ChaosMethod m,
                                 const ChaosOptions& opt) {
  const ChaosRun baseline = RunTrainingWorkload(m, opt);
  // Die mid-training, not at the very first collective.
  const uint64_t crash_at = std::max<uint64_t>(opt.crash_at_collective, 3);
  return RunPlannedCase(kind, std::string("training[") + ToString(m) + "]", m,
                        opt, crash_at, /*rank_invariant=*/true, baseline,
                        [&] { return RunTrainingWorkload(m, opt); });
}

ChaosCaseResult RunDeadRootBroadcast(const ChaosOptions& opt) {
  ChaosCaseResult result;
  result.name = "crash x broadcast[dead-root]";
  FaultPlanConfig cfg;
  cfg.seed = opt.seed;
  cfg.crash_rank = 0;  // the broadcast root below
  cfg.crash_at_collective = 1;
  FaultPlan plan(cfg);
  ChaosRun run;
  {
    ScopedFaultInjector install(&plan);
    run = RunCollectiveWorkload(ChaosCollective::kBroadcast,
                                ChaosMethod::kSign, opt);
  }
  result.injected = plan.injected();
  result.seed_used = cfg.seed;
  if (run.detected) {
    result.outcome = ChaosOutcome::kDetected;
    result.detail = run.error;
  } else {
    result.outcome = ChaosOutcome::kSilentCorruption;
    result.detail = run.error.empty()
                        ? "broadcast from a dead root completed silently"
                        : "unstructured failure: " + run.error;
  }
  return result;
}

namespace {
// Hostile injector: drops every publish on every attempt, so the bounded
// retry can never succeed and MUST give up with a structured report.
class AlwaysDropInjector final : public FaultInjector {
 public:
  FaultKind OnPublish(int, uint64_t, int) override {
    injected_.fetch_add(1, std::memory_order_relaxed);
    return FaultKind::kDrop;
  }
  FaultKind OnRead(int, uint64_t, int) override { return FaultKind::kNone; }
  EntryDecision OnCollectiveEntry(int, uint64_t) override { return {}; }
  [[nodiscard]] std::string Describe() const override {
    return "always-drop (hostile, fires on every attempt)";
  }
  [[nodiscard]] int64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> injected_{0};
};
}  // namespace

ChaosCaseResult RunRetryExhaustion(const ChaosOptions& opt) {
  ChaosCaseResult result;
  result.name = "always-drop x all_reduce[ring]";
  AlwaysDropInjector hostile;
  ChaosRun run;
  {
    ScopedFaultInjector install(&hostile);
    run = RunCollectiveWorkload(ChaosCollective::kAllReduceRing,
                                ChaosMethod::kSign, opt);
  }
  result.injected = hostile.injected();
  result.seed_used = 0;
  if (run.detected) {
    result.outcome = ChaosOutcome::kDetected;
    result.detail = run.error;
  } else {
    result.outcome = ChaosOutcome::kSilentCorruption;
    result.detail = run.error.empty()
                        ? "retry budget exhaustion was not reported"
                        : "unstructured failure: " + run.error;
  }
  return result;
}

}  // namespace acps::fault
