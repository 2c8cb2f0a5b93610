// ScheduleController: the CHESS/loom-style scheduling half of acps::check.
//
// The in-process collectives (comm/communicator.cc) are rendezvous-
// synchronous, so their *results* must be independent of how the OS
// interleaves the worker threads between barriers. The controller attacks
// exactly that assumption, in three modes that compose:
//
//  * Random perturbation — at every SchedPoint, a decision derived purely
//    from (seed, window, rank) or a global point counter chooses to do
//    nothing, yield, double-yield, or charge a virtual-time delay (ticks on
//    fault::VirtualClock plus bounded yields — wall-clock sleeps are banned,
//    see tools/lint.sh raw-sleep). One seed = one perturbation schedule; a
//    violating seed is replayed by re-running with the same seed.
//  * Order enforcement — for hand-off windows (the kHandoffSend /
//    kHandoffPublished pairs where all p ranks publish one chunk between two
//    barriers), the controller serializes publishes in a chosen permutation
//    per window. The explorer enumerates permutation vectors to walk every
//    hand-off order (bounded exhaustive mode). A rank whose turn never comes
//    (uniform-participation assumption violated) proceeds after
//    `order_wait_ms` and the miss is counted — degraded to perturbation,
//    never deadlock.
//  * Fault injection — at one chosen (window, rank) the just-published
//    payload is rotated by one float, emulating a mis-ordered chunk
//    hand-off. The explorer must flag the resulting divergence; this is the
//    mutation test proving the checker can detect real bugs.
//
// The controller is installed process-wide via ScopedSchedListener around a
// Session::Run; see explorer.h for the harness that drives it.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "check/sched_point.h"
#include "par/lock_level.h"

namespace acps::check {

// One intentionally injected hand-off corruption (see class comment).
struct FaultSpec {
  int window = 0;  // which hand-off window (global index, 0-based)
  int rank = 0;    // whose published payload to corrupt
};

struct ScheduleConfig {
  // Drives every perturbation decision; the replay handle.
  uint64_t seed = 1;
  // Ranks in the group under test; required for window accounting.
  int world_size = 0;
  // Probability that a point perturbs at all (random mode).
  double perturb_prob = 0.5;

  // Order enforcement (exhaustive mode). `order_digits[w]` selects the
  // publish permutation for window w as an index in [0, world_size!);
  // windows beyond the vector use permutation 0 (identity).
  bool enforce_order = false;
  std::vector<int> order_digits;
  int64_t order_wait_ms = 2000;  // safety valve: never deadlock the group

  std::optional<FaultSpec> fault;

  size_t trace_capacity = 256;  // most recent points kept for reports
};

class ScheduleController final : public SchedListener {
 public:
  explicit ScheduleController(ScheduleConfig cfg);

  void OnSchedPoint(PointKind kind, int rank,
                    std::span<std::byte> payload) override;

  struct Stats {
    int64_t points = 0;
    int windows = 0;  // completed hand-off windows
    int64_t yields = 0;
    int64_t sleeps = 0;
    int enforcement_misses = 0;
    int faults_injected = 0;
  };
  [[nodiscard]] Stats stats() const;

  // Human-readable tail of the observed schedule ("w3 pub r0", ...), newest
  // last; rendered into violation reports.
  [[nodiscard]] std::string Trace() const;

  // Rearms per-run state (window counter, in-window publish count, trace)
  // so a controller reused across Session::Run calls re-injects and
  // re-enforces from window 0. Without this, the window counter kept
  // monotonically increasing across runs, so a FaultSpec aimed at window w
  // only ever fired on the first run that passed it — reused controllers
  // silently stopped injecting. Cumulative stats are preserved.
  void ResetRunState();

  [[nodiscard]] const ScheduleConfig& config() const { return config_; }

 private:
  void Perturb(PointKind kind, int rank);
  void Record(PointKind kind, int rank, const char* note);
  // Permutation of [0, world_size) for window `w` from order_digits.
  [[nodiscard]] std::vector<int> PermForWindow(int w) const;
  // Closes the in-progress hand-off window once every *live* rank has
  // published. Called after each publish and after a kRankDown membership
  // flip — a window whose remaining publisher just died must close, or
  // order enforcement would stall every later window waiting on a rank
  // that no longer exists (elastic-membership runs).
  void MaybeCloseWindowLocked();

  ScheduleConfig config_;

  // Level 50: the replay lock is only ever taken from SchedPoint hooks and
  // harness accessors, never with a comm-layer lock held (hooks fire
  // outside GroupState::group_mu by design — rule `sched-point-under-lock`).
  mutable ACPS_LOCK_LEVEL(50) replay_mu_;
  par::ConditionVariable cv_;
  int window_ = 0;                // current hand-off window
  int published_in_window_ = 0;   // publishes completed in current window
  int perm_pos_ = 0;              // next position in the window's permutation
  // Live-membership view, updated by kRankDown / kRankUp points. Windows
  // close when every live rank published, and enforcement skips dead ranks
  // in the permutation — fixed-membership runs (alive_ all true) behave
  // exactly as before.
  std::vector<char> alive_;
  Stats stats_;
  std::vector<std::string> trace_;  // ring buffer
  size_t trace_next_ = 0;
  std::atomic<uint64_t> point_counter_{0};  // decisions for rank-less points
};

// Decodes `digit` (in [0, p!)) into the permutation of [0, p) with that
// index in the factorial number system. Exposed for the explorer's odometer.
[[nodiscard]] std::vector<int> NthPermutation(int p, int digit);

// p! for small p (checked: p <= 8).
[[nodiscard]] int Factorial(int p);

}  // namespace acps::check
