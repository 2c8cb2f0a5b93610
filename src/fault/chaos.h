// Chaos harness (DESIGN.md §6f): drives every fault kind through every
// collective and every compression method, and classifies each case as
//
//   kRecovered         — the run completed and the observable result is
//                        bitwise identical to the fault-free baseline (wire
//                        faults), or the survivors completed consistently
//                        with the reconfigured membership (rank crash);
//   kDetected          — the transport raised fault::DetectedError on every
//                        rank in lockstep, carrying a seed-replayable report;
//   kSilentCorruption  — the run "succeeded" but the bits differ from the
//                        baseline, or it failed in an unstructured way. This
//                        is the outcome the whole layer exists to rule out:
//                        any occurrence is a test failure;
//   kNoInjection       — the seeded plan never fired even after the seed
//                        bumps; the case proves nothing and is also a test
//                        failure (it means the rate/seed knobs are broken).
//
// Two granularities:
//  * RunCollectiveChaos — one collective op over method-flavored payloads
//    (the compressed representations each method actually puts on the wire).
//  * RunTrainingChaos — a short compressed training loop (error feedback,
//    factor reuse, momentum-free SGD); recoverable faults must leave the
//    final model bitwise identical, a rank crash must leave the survivors
//    mutually identical with conserved error-feedback mass.
//
// Every decision is replayable: the result records the plan seed that was
// used, and re-running the same case with the same ChaosOptions reproduces
// the identical fault sequence (FaultPlan is a pure function of (seed, seq,
// rank, site); the transport has no wall-clock nondeterminism).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"

namespace acps::fault {

// The collectives the matrix covers (ISSUE: ring all-reduce, all-gather,
// reduce-scatter, broadcast, hierarchical).
enum class ChaosCollective : uint8_t {
  kAllReduceRing,
  kAllGather,
  kReduceScatter,
  kBroadcast,
  kHierarchical,
};

// The compression methods whose wire payloads / training loops the matrix
// covers (ISSUE: ACP-SGD, Power-SGD, Top-k, Sign).
enum class ChaosMethod : uint8_t {
  kAcpSgd,
  kPowerSgd,
  kTopk,
  kSign,
};

enum class ChaosOutcome : uint8_t {
  kRecovered,
  kDetected,
  kSilentCorruption,
  kNoInjection,
};

[[nodiscard]] const char* ToString(ChaosCollective c) noexcept;
[[nodiscard]] const char* ToString(ChaosMethod m) noexcept;
[[nodiscard]] const char* ToString(ChaosOutcome o) noexcept;

[[nodiscard]] std::vector<ChaosCollective> AllChaosCollectives();
[[nodiscard]] std::vector<ChaosMethod> AllChaosMethods();
// The injectable kinds (everything except kNone).
[[nodiscard]] std::vector<FaultKind> AllInjectableFaultKinds();

struct ChaosOptions {
  int world_size = 4;
  // Elements per collective payload; must be divisible by 6 (the low-rank
  // payloads reshape it to a 6 x numel/6 matrix).
  int64_t numel = 48;
  // Training steps for RunTrainingChaos.
  int steps = 5;
  // Base plan seed. When a seeded plan happens to never fire for a case,
  // the harness deterministically bumps the seed up to `max_seed_bumps`
  // times before giving up with kNoInjection.
  uint64_t seed = 0xFA17ull;
  int max_seed_bumps = 8;
  // Wire-fault probability per event; entry-fault probability for
  // stragglers.
  double rate = 0.25;
  int64_t straggler_ticks = 64;
  // Rank that fail-stops in kCrash cases (-1: world_size - 1) and the
  // 1-based collective entry it dies at (training cases die later so the
  // crash lands mid-run).
  int crash_rank = -1;
  uint64_t crash_at_collective = 1;
};

// Raw outcome of one group run: per-rank output bytes (crashed ranks hold
// whatever they had produced before dying — callers must ignore them),
// the crash record, and how the run ended.
struct ChaosRun {
  std::vector<std::vector<std::byte>> outputs;  // per rank
  std::vector<int> crashed;                     // from Session
  // Per-rank error-feedback conservation gap (training runs with
  // harness-owned EF only, i.e. Top-k and Sign):
  //   max_i | sum_t grad_t[i] - (sum_t reconstruction_t[i] + residual_T[i]) |
  // The telescoping EF invariant makes this ~0 for any fault the run
  // absorbed; a lost or double-counted update shows up here even when the
  // final models happen to agree.
  std::vector<double> ef_gap;  // empty for methods with internal EF
  std::string error;     // non-empty when the run failed
  bool detected = false; // the failure was a structured fault::DetectedError
};

// Runs the collective workload under whatever FaultInjector is currently
// installed (none = fault-free baseline). Payloads are deterministic
// per (method, rank), so two runs with the same injector state are
// bitwise-comparable.
[[nodiscard]] ChaosRun RunCollectiveWorkload(ChaosCollective c, ChaosMethod m,
                                             const ChaosOptions& opt);

// Short compressed training loop (see file comment) under the installed
// injector. Outputs are the final parameter bytes per rank.
[[nodiscard]] ChaosRun RunTrainingWorkload(ChaosMethod m,
                                           const ChaosOptions& opt);

// One classified matrix cell. `ok()` is what the chaos test asserts for
// every cell: the fault fired, and it was either absorbed or detected.
struct ChaosCaseResult {
  std::string name;
  ChaosOutcome outcome = ChaosOutcome::kNoInjection;
  int64_t injected = 0;    // faults the plan actually fired
  uint64_t seed_used = 0;  // replay handle
  std::string detail;      // diff / report / crash record

  [[nodiscard]] bool ok() const {
    return outcome == ChaosOutcome::kRecovered ||
           outcome == ChaosOutcome::kDetected;
  }
  [[nodiscard]] std::string Summary() const;
};

// One cell of the collective-level matrix: baseline run, then the same
// workload under a seeded FaultPlan of `kind`, then classification.
[[nodiscard]] ChaosCaseResult RunCollectiveChaos(FaultKind kind,
                                                 ChaosCollective c,
                                                 ChaosMethod m,
                                                 const ChaosOptions& opt);

// One cell of the training-level matrix (kCrash cases die at
// max(crash_at_collective, 3) so the crash lands mid-training).
[[nodiscard]] ChaosCaseResult RunTrainingChaos(FaultKind kind, ChaosMethod m,
                                               const ChaosOptions& opt);

// Detected-path probes (the matrix above exercises the recovery paths):
// broadcast whose root has fail-stopped — every survivor must raise the
// same structured DetectedError naming the dead root.
[[nodiscard]] ChaosCaseResult RunDeadRootBroadcast(const ChaosOptions& opt);
// A hostile injector that drops every publish on every attempt — the
// bounded retry must exhaust its budget and raise DetectedError rather
// than spin or deadlock.
[[nodiscard]] ChaosCaseResult RunRetryExhaustion(const ChaosOptions& opt);

}  // namespace acps::fault
