// Fault-injection hooks: the instrumentation half of the resilience layer
// (acps::fault, DESIGN.md §6f).
//
// The in-process transport (comm/communicator.cc) moves every chunk through
// a sequence-numbered, checksummed mailbox envelope. A FaultInjector sits on
// the "wire" between a publish and the matching read: it can drop the
// message, replay the previous one, serve a reader a stale mailbox, rotate
// payload bytes after the checksum was sealed, charge virtual straggler
// ticks, or kill a rank outright at a collective entry. When no injector is
// installed (the normal case, including release builds) every hook costs one
// acquire load and a predicted-not-taken branch.
//
// This header is the only part of acps::fault the transport depends on; it
// depends on nothing but the standard library, so the dependency arrow stays
// comm -> fault::points, never fault -> comm at the hook level (the seeded
// FaultPlan and the chaos harness sit above comm, see plan.h / chaos.h).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace acps::fault {

// What the injector does to one transport event.
enum class FaultKind : uint8_t {
  kNone,       // deliver faithfully
  kDrop,       // publish lost on the wire: mailbox keeps the old message
  kDuplicate,  // publish delivered, then the previous message replayed over it
  kStaleRead,  // reader is served the previous mailbox contents
  kCorrupt,    // payload bytes rotated after the checksum was sealed
  kStraggler,  // sender charged virtual delay ticks before publishing
  kCrash,      // rank dies at this collective entry (fail-stop)
};

[[nodiscard]] const char* ToString(FaultKind kind) noexcept;

// Decision for one collective-entry event. `ticks` is only meaningful for
// kStraggler.
struct EntryDecision {
  FaultKind kind = FaultKind::kNone;
  int64_t ticks = 0;
};

// One scheduled (re)admission: `rank` wants to (re)enter the group at the
// first membership commit with index >= `at_commit` at which it is down
// (crashed, departed, or latent — never yet joined). The session registers
// every intent up front, so admission is a pure function of the commit
// index and the membership state, never of thread arrival order.
struct AdmissionIntent {
  int rank = -1;
  uint64_t at_commit = 1;  // 1-based commit index
};

// Receives every transport event while installed. Implementations must be
// thread-safe (events fire concurrently from all worker threads) and must be
// pure functions of their arguments plus immutable seed state, so a plan is
// replayable from (seed, sequence number) alone. `attempt` is the bounded
// retry attempt of the surrounding exchange; plans are expected to inject
// only at attempt 0 so recovery converges deterministically.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  // Wire fault for `rank`'s publish of message `seq`. May return kNone,
  // kDrop, kDuplicate, kCorrupt or kStraggler.
  virtual FaultKind OnPublish(int rank, uint64_t seq, int attempt) = 0;

  // Reader-side fault before `rank` validates the message `seq` it expects.
  // May return kNone or kStaleRead.
  virtual FaultKind OnRead(int rank, uint64_t seq, int attempt) = 0;

  // Collective-entry fault for `rank` entering its `collective_index`-th
  // collective (1-based, counted per rank). May return kNone, kCrash or
  // kStraggler.
  virtual EntryDecision OnCollectiveEntry(int rank,
                                          uint64_t collective_index) = 0;

  // Membership churn (elastic sessions, DESIGN.md "Elastic membership").
  // Both hooks must be pure functions of their arguments plus immutable
  // seed state, like the wire hooks above. Defaults keep every existing
  // injector a pure fail-stop plan.
  //
  // True when `rank` departs gracefully at the `commit_index`-th membership
  // commit (1-based): the rank announces the departure inside commit_view
  // and unwinds via RankDeparted instead of running further steps.
  [[nodiscard]] virtual bool LeavesAtCommit(int /*rank*/,
                                            uint64_t /*commit_index*/) {
    return false;
  }

  // The full (re)admission schedule for the run, known up front. The
  // session registers each intent before any worker starts, so replay
  // never depends on when a crashed thread reaches its wait loop.
  [[nodiscard]] virtual std::vector<AdmissionIntent> AdmissionSchedule() {
    return {};
  }

  // Identity string folded into detected-fault reports so a failure is
  // replayable from the report alone (seed, kind, rate, ...).
  [[nodiscard]] virtual std::string Describe() const {
    return "unnamed fault injector";
  }
};

namespace detail {
extern std::atomic<FaultInjector*> g_injector;
}  // namespace detail

// Installs `injector` process-wide (nullptr uninstalls); returns the
// previous one. The caller must guarantee no transport code is running
// during the swap — in practice the chaos harness installs before
// Session::Run and uninstalls after it joins.
FaultInjector* InstallFaultInjector(FaultInjector* injector);

// RAII installation for harness code.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector)
      : previous_(InstallFaultInjector(injector)) {}
  ~ScopedFaultInjector() { InstallFaultInjector(previous_); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* previous_;
};

[[nodiscard]] inline FaultInjector* InstalledFaultInjector() noexcept {
  return detail::g_injector.load(std::memory_order_acquire);
}

// The hooks the transport calls. Free when no injector is installed.
inline FaultKind OnPublish(int rank, uint64_t seq, int attempt) {
  FaultInjector* f = InstalledFaultInjector();
  return f != nullptr ? f->OnPublish(rank, seq, attempt) : FaultKind::kNone;
}

inline FaultKind OnRead(int rank, uint64_t seq, int attempt) {
  FaultInjector* f = InstalledFaultInjector();
  return f != nullptr ? f->OnRead(rank, seq, attempt) : FaultKind::kNone;
}

inline EntryDecision OnCollectiveEntry(int rank, uint64_t collective_index) {
  FaultInjector* f = InstalledFaultInjector();
  return f != nullptr ? f->OnCollectiveEntry(rank, collective_index)
                      : EntryDecision{};
}

// Thrown (as a plain struct, deliberately NOT a std::exception, so generic
// catch(const std::exception&) handlers in library code cannot swallow it)
// by the transport when a rank's fail-stop crash fires. Session::Run
// catches it, records the rank as crashed, and lets the surviving ranks
// finish with the reconfigured membership.
struct RankCrashed {
  int rank = -1;
  uint64_t collective_index = 0;
};

// Thrown (same plain-struct rationale as RankCrashed) by commit_view when a
// rank's scheduled graceful departure fires: the rank marks itself gone,
// the survivors complete the commit over the shrunken view, and the
// session worker either finishes the rank or parks it for readmission.
struct RankDeparted {
  int rank = -1;
  uint64_t commit_index = 0;
};

// Unrecoverable-but-detected transport failure: bounded retry exhausted
// (e.g. the only publisher of a message is dead, or faults outlasted the
// retry budget). Carries the structured site report; every rank of the
// group throws it in lockstep, so the group unwinds without deadlocking.
class DetectedError : public std::runtime_error {
 public:
  explicit DetectedError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace acps::fault
