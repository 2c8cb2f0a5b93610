// Shared communication transport: the long-lived substrate under every
// comm::Session (DESIGN.md §7).
//
// The transport owns what is common to all tenants of the in-process
// cluster: the envelope/mailbox delivery fabric (sequence numbers +
// checksums, extracted from the old single-tenant detail::GroupState), the
// fault-hook routing, capacity accounting (how many sessions / ranks may be
// open at once), and the observability attachment points (tracer, metrics
// registry). Per-job state — barrier, mailboxes, membership view, contract
// checker, traffic counters — lives in one detail::GroupState *channel
// block* per session, so tenants are physically isolated: no mailbox slot,
// barrier round or retry flag is ever shared between jobs.
//
// Layering (tools/lint.sh `transport-below-session`): this header sits at
// the bottom of src/comm — it must not include comm/session.h or
// comm/communicator.h, and detail::GroupState must never be touched outside
// src/comm (`groupstate-outside-comm`). Everything above talks to the
// transport through Session / Communicator.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "check/sched_point.h"
#include "comm/contract.h"
#include "par/lock_level.h"
#include "tensor/check.h"

namespace acps::obs {
class Tracer;
class MetricsRegistry;
}  // namespace acps::obs

namespace acps::fault {
class FaultInjector;
}  // namespace acps::fault

namespace acps::comm {

// Reduction operator for all_reduce / reduce_scatter.
enum class ReduceOp { kSum, kMax };

// All-reduce algorithm selection. kRing is the bandwidth-optimal default
// (reduce-scatter + all-gather, 2*(p-1)/p * N per worker); kNaive is the
// flat reduce-to-root + broadcast reference (O(p*N)). kSessionDefault (the
// per-call default) resolves to the session's configured algorithm
// (SessionOptions::algo, kRing by default), so callers
// normally do not thread an algorithm through every collective.
enum class AllReduceAlgo { kRing, kNaive, kSessionDefault };

// Per-worker traffic statistics, in "wire" units. One mailbox write of B
// bytes counts as one message of B bytes sent (the shared-memory analogue of
// one point-to-point send on the ring). Retransmissions during fault
// recovery are charged like first sends — the wire cost was paid. Counters
// are per communicator (and aggregated per session), never shared across
// tenants.
struct TrafficStats {
  uint64_t bytes_sent = 0;
  uint64_t messages_sent = 0;
  uint64_t collectives = 0;

  void reset() { *this = TrafficStats{}; }
};

// Sentinel for barrier-timeout parameters: resolve the timeout from the
// ACPS_COLLECTIVE_TIMEOUT_MS environment variable (milliseconds; <= 0
// disables the watchdog), falling back to 60000.
inline constexpr int64_t kCollectiveTimeoutFromEnv = INT64_MIN;

namespace detail {

// Absent sequence number: a mailbox slot that has never been published.
inline constexpr uint64_t kNoSeq = ~uint64_t{0};

// One published message with its delivery envelope. `seq` identifies the
// (collective, phase, ring step) the message belongs to; `checksum` seals
// the payload bytes under the owning session's envelope salt, so readers
// can tell apart every recoverable wire fault — and a chunk belonging to
// another tenant's session can never validate even if a buggy consumer were
// handed the wrong channel block.
struct Message {
  std::vector<std::byte> bytes;
  uint64_t seq = kNoSeq;
  uint32_t checksum = 0;
};

// Per-worker channel. `prev` keeps the previously published message — the
// source the injector serves for duplicate/replay and stale-read faults.
struct Mailbox {
  Message cur;
  Message prev;
};

// One registered (re)admission intent, parked in the group's join-intent
// mailbox until a membership commit consumes it. Registered up front (at
// session setup, from the injector's AdmissionSchedule), so admission is a
// pure function of (commit index, membership state) — never of when a
// crashed thread happened to reach its wait loop.
struct JoinIntent {
  int rank = -1;
  uint64_t at_commit = 1;  // first eligible commit index (1-based)
  bool consumed = false;   // admitted at some commit
};

// Record of one committed membership transition (epoch bump). Returned by
// Communicator::commit_view so workloads can react to churn (rescale
// means, re-plan topology splits, run state resync for joiners).
struct ViewTransition {
  uint64_t epoch = 0;         // epoch now in force
  uint64_t commit_index = 0;  // 1-based commit that produced it
  std::vector<int> joined;    // ranks admitted at this commit (sorted)
  std::vector<int> rejoined;  // subset of `joined` that ran before (sorted)
  std::vector<int> left;      // graceful departures at this commit (sorted)
};

// AwaitAdmission outcome for a parked (crashed/latent) rank.
enum class AdmissionStatus : uint8_t {
  kAdmitted,   // a commit re-admitted the rank; it owns a barrier slot
  kAbandoned,  // no commit can ever admit it (group drained or timeout)
  kAborted,    // the group aborted while the rank was parked
};

// One session's channel block: a sense-reversing barrier over the *alive*
// membership, one envelope mailbox per worker, a size-exchange board for
// variable-size collectives, retry flags for the reliable-delivery
// protocol, the collective usage-contract checker, and the session-scoped
// configuration (envelope salt, default algorithm, metric prefix, tenant
// fault injector). Owned by exactly one comm::Session; opaque outside
// src/comm.
struct GroupState {
  GroupState(int p, int64_t timeout_ms);

  int world_size;
  int64_t barrier_timeout_ms;
  ACPS_LOCK_LEVEL(30) group_mu;
  par::ConditionVariable cv;
  int arrived = 0;
  bool sense = false;
  bool aborted = false;
  // Why the group was aborted (watchdog report, contract diff); folded into
  // the "group aborted" errors seen by the other workers so every thrown
  // exception names the culprit, not just the first one.
  std::string abort_reason;

  // Fingerprint rendezvous on/off (watchdog status tracking is always on).
  bool contract_enabled = false;
  ContractChecker contract;

  std::vector<Mailbox> mailbox;
  std::vector<size_t> sizes;

  // Reliable-delivery retry flags: worker r sets retry_flag[r] between the
  // two barriers of an exchange step (1 = one of its reads failed
  // validation). Stable for readers from the step's second barrier until
  // the writer's next first barrier, so the post-barrier scan is race-free.
  std::vector<uint8_t> retry_flag;

  // Fail-stop membership. alive[r] flips to 0 exactly once per generation,
  // at the crashed rank's collective entry (before any survivor passes the
  // entry barrier), so every surviving rank samples an identical view per
  // collective. Elastic sessions may flip it back to 1 — only inside a
  // barrier-aligned view commit (ApplyViewCommit), so the invariant holds.
  std::vector<uint8_t> alive;
  int alive_count;
  std::vector<int> crashed;  // in crash order (a rank may appear twice)
  std::vector<int> departed;  // graceful leaves, in commit order

  // --- Elastic membership (DESIGN.md "Elastic membership") ----------------
  // Epoch-numbered views: `epoch` bumps at every committed membership
  // transition; `commit_count` counts commits (epoch == commit_count today,
  // kept separate so a no-op commit could skip the bump without breaking
  // the ledger). `commit_seq` snapshots the applier's per-rank collective
  // sequence at the commit: a joiner adopts it so its next collective entry
  // lands on commit_seq + 1, in lockstep with the survivors.
  uint64_t epoch = 0;
  uint64_t commit_count = 0;
  uint64_t commit_seq = 0;
  ViewTransition last_transition;
  // How many entries of `departed` earlier commits already reported;
  // entries past it are this commit's graceful leavers.
  size_t departed_reported = 0;
  // Ranks that have ever been admitted (ran at least one generation);
  // distinguishes a rejoin from a fresh join in transition records.
  std::vector<uint8_t> ever_ran;

  // Join-intent mailbox (all intents registered before Run starts).
  std::vector<JoinIntent> join_intents;

  // Threads currently inside the session's worker function. When it drains
  // to 0 no further commits can happen, so parked joiners give up
  // (kAbandoned) instead of waiting forever.
  int working = 0;

  // First exception thrown by any worker during Run.
  ACPS_LOCK_LEVEL(32) err_mu;
  std::exception_ptr first_error;

  // --- Session scope (set once at channel open / before Run) --------------
  // Folded into every envelope checksum: chunks sealed under one session's
  // salt never validate under another's, so tenants cannot observe each
  // other's payloads. 0 for the anonymous legacy session (bitwise-identical
  // envelopes to the pre-session transport).
  uint64_t envelope_salt = 0;
  // The session's job id ("" for the legacy shim) and the derived obs
  // namespace ("job/<id>/", "" when anonymous). Fault counters and traffic
  // metrics are recorded under this prefix so one tenant's retransmissions
  // never pollute another's counters.
  std::string job_id;
  std::string metric_prefix;
  // Per-session default for AllReduceAlgo::kSessionDefault resolution.
  AllReduceAlgo default_algo = AllReduceAlgo::kRing;
  // Tenant-scoped fault injector (not owned; may be null). When set, all
  // fault hooks of this session route here INSTEAD of the process-global
  // injector, so a chaos plan aimed at one tenant cannot leak into another.
  fault::FaultInjector* injector = nullptr;
  // Observability attachment, copied from the transport at Run entry.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  // Must be called with `group_mu` held.
  [[nodiscard]] std::string AbortMessage() const;

  void Barrier();
  void Abort();

  // Fail-stop for `rank`: remove it from the barrier membership. If the
  // current barrier round was only waiting on the dying rank, complete the
  // round so the survivors unblock. arrived can only reach alive_count when
  // every survivor has arrived, so a round never completes early.
  void MarkDead(int rank);

  // Graceful departure for `rank` at a membership commit: same barrier
  // mechanics as MarkDead, but recorded as a leave (contract renders LEFT,
  // not CRASHED) so churn reports distinguish planned exits from failures.
  void MarkLeft(int rank);

  // Applies membership commit `commit_index` (1-based): consumes every
  // eligible join intent (at_commit <= commit_index, rank currently down),
  // flips the admitted ranks alive, records this commit's graceful
  // departures, bumps the epoch and snapshots `applier_seq` as the
  // collective sequence joiners resume from. Called by every rank of the
  // commit after its opening barrier; the first caller applies, the rest
  // observe — the guard on commit_count makes the application idempotent,
  // so the outcome never depends on which rank got the lock first. Growing
  // alive_count mid-round is safe: an in-flight barrier can only complete
  // once the admitted joiner itself arrives. Returns the committed
  // transition (identical for every caller of the same commit).
  [[nodiscard]] ViewTransition ApplyViewCommit(uint64_t commit_index,
                                               uint64_t applier_seq);

  // Registers a (re)admission intent. Called before Run's workers start.
  void RegisterAdmission(int rank, uint64_t at_commit);

  // True while an unconsumed intent for `rank` exists — i.e. some future
  // commit may still (re)admit it — or a commit already consumed one and
  // flipped the rank alive, so its readmission is in flight and the worker
  // must park in AwaitAdmission rather than exit.
  [[nodiscard]] bool HasPendingAdmission(int rank);

  // Parks a crashed/latent `rank` until a commit re-admits it (kAdmitted),
  // the group drains or `timeout_ms` elapses (kAbandoned), or the group
  // aborts (kAborted). timeout_ms <= 0 waits without a deadline. On
  // kAdmitted the caller owns a barrier slot and must immediately call
  // Barrier() once, joining the admitting commit's closing barrier.
  [[nodiscard]] AdmissionStatus AwaitAdmission(int rank, int64_t timeout_ms);

  // Fingerprint rendezvous run at every collective entry in checked mode:
  //   deposit -> barrier -> validate -> barrier.
  // On divergence every rank computes the same per-rank diff and throws, so
  // the group unwinds in lockstep instead of deadlocking in the collective
  // body or silently mis-reducing.
  void CheckedRendezvous(int rank, const CollectiveFingerprint& fp);
};

}  // namespace detail

// Capacity and defaults for one Transport. Hard limits — a Session that
// would exceed them fails to construct. Admission *policy* (queueing jobs
// until capacity frees up) lives above, in core::TrainingService.
struct TransportOptions {
  // Barrier watchdog for every session opened on this transport; the
  // sentinel defers to ACPS_COLLECTIVE_TIMEOUT_MS (<= 0 disables).
  int64_t barrier_timeout_ms = kCollectiveTimeoutFromEnv;
  // Maximum concurrently open sessions (0 = unlimited).
  int max_sessions = 0;
  // Maximum sum of world sizes across open sessions (0 = unlimited).
  int max_total_ranks = 0;

  // Returns "" when valid, otherwise one message naming every violation.
  [[nodiscard]] std::string Validate() const;
};

// The long-lived shared substrate. One Transport hosts any number of
// concurrent per-job Sessions (subject to TransportOptions capacity); it
// outlives all of them. Thread-safe: sessions may be opened/closed from any
// thread.
class Transport {
 public:
  explicit Transport(TransportOptions options = {});
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] const TransportOptions& options() const noexcept {
    return options_;
  }

  // Attaches a tracer: every Communicator of every session Run started
  // afterwards emits spans into it (rows share one time base across
  // tenants; spans carry the session's rank). Pass nullptr to detach. The
  // tracer must outlive the runs that use it.
  void set_tracer(obs::Tracer* tracer) noexcept;
  [[nodiscard]] obs::Tracer* tracer() const noexcept;

  // Attaches a metrics registry: sessions record their fault/retry/
  // degradation counters under their own `job/<id>/` namespace into it.
  // Same lifetime contract as the tracer.
  void set_metrics(obs::MetricsRegistry* metrics) noexcept;
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept;

  // --- Capacity accounting -------------------------------------------------
  [[nodiscard]] int active_sessions() const;
  [[nodiscard]] int active_ranks() const;
  [[nodiscard]] uint64_t sessions_opened() const;

  // Deterministic per-job envelope salt: 0 for the anonymous session (the
  // legacy shim keeps bitwise-identical envelopes), a 64-bit mix of the job
  // id otherwise. Exposed for isolation tests.
  [[nodiscard]] static uint64_t EnvelopeSalt(const std::string& job_id);

 private:
  friend class Session;

  // Opens one channel block for a session of `world_size` ranks. Throws
  // acps::Error when the transport is at capacity or world_size < 1.
  [[nodiscard]] std::unique_ptr<detail::GroupState> OpenChannel(
      const std::string& job_id, int world_size, AllReduceAlgo default_algo);
  void CloseChannel(int world_size) noexcept;

  TransportOptions options_;
  mutable ACPS_LOCK_LEVEL(20) transport_mu_;
  int active_sessions_ = 0;
  int active_ranks_ = 0;
  uint64_t sessions_opened_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace acps::comm
