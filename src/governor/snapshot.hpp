// Binary profile snapshots: governor state + converged TCM + per-class gaps.
//
// A restarted run pays the full convergence ramp again — epochs of
// over-sampling (wasted overhead) or under-sampling (wrong correlation map)
// until the controller settles.  A snapshot taken after convergence lets the
// next run warm-start at the converged rates and seed the daemon with the
// converged TCM, the distributed analog of a single-process profiler's
// `sample.prof` dump.
//
// Format v7, host-endian, fixed-width fields (round-trips bit-exactly on
// the writing host; a foreign-endian reader rejects the file at the magic
// check and cold-starts rather than misreading it):
//   u32 magic 'DJGV'   u32 version
//   u8 mode            u8 state
//   u8 flags (bit 0: per-node budget enforcement)   u8 reserved
//   f64 overhead_budget   f64 distance_threshold
//   f64 hysteresis        f64 phase_spike_factor
//   f64 node_budget (0 = inherit overhead_budget)          [v2+]
//   u32 sentinel_coarsen_shifts   u32 max_nominal_gap
//   u64 epochs_seen       u64 rearms
//   u32 class_count
//     class_count x { u32 class_id, u32 nominal_gap, u32 real_gap,
//                     u32 converged_nominal (0 = not captured),
//                     u32 flags (bit 0: rate was ever assigned; unset =
//                     placeholder gaps, left untouched on load so the
//                     class still inherits the cluster default rate) }
//   u32 shift_node_count                                    [v2+]
//     shift_node_count x class_count x u8 per-node gap shift [v2+]
//   u32 copy_node_count                                     [v3+]
//     copy_node_count x { u64 copy_registrations,           [v3+]
//                         u64 resample_visits }
//   u8 backoff_scoring   u8 influence_seen   u16 reserved   [v4]
//   f64 influence_decay                                     [v4]
//   u32 influence_count                                     [v4]
//     influence_count x { u32 class_id, f64 influence }     [v4]
//   u64 migrations_executed                                 [v5]
//   u32 migration_count                                     [v5]
//     migration_count x { u64 epoch, u32 thread,            [v5]
//                         u16 from_node, u16 to_node,
//                         f64 gain_bytes, f64 sim_cost_seconds,
//                         u64 prefetched_bytes }
//   u8 has_lease (0/1)                                      [v7]
//     if has_lease: { u32 tenant, u32 tier,                  [v7]
//                     f64 weight, f64 granted_budget,
//                     f64 fair_share, f64 floor,
//                     u64 borrowed_epochs, u64 lent_epochs }
//   u64 tcm_dimension
//     dimension^2 x f64 (row-major)
//   u32 crc32 over every preceding byte                      [v6]
//
// The v3 copy summary records the cached-copy sampling bookkeeping — how
// many copy bits each node has registered (fault-ins, prefetches) and how
// many resampling copy visits it has paid — so a warm-started run continues
// the counters that tell where sampling cost was actually incurred.
//
// The v4 influence table persists the governor's decayed balancer-influence
// shares (the fraction of each class's correlation mass placement decisions
// act on) plus the scoring mode and decay, so a warm-started run backs off
// the right classes immediately instead of re-learning influence from
// scratch.  Zero-influence classes are trimmed (bit-exact re-encode).
//
// The v5 migration history persists the facade's executed-migration log
// (see Governor::record_migration): per-thread cooldown stamps are rebuilt
// from the entries on load, so a warm-started run neither re-migrates a
// thread the previous run just moved nor forgets which moves the influence
// table already credits.
//
// The v6 CRC32 footer (common/crc32.hpp, IEEE polynomial) covers every
// preceding byte.  Files are always written temp-then-atomic-rename, so a
// crash mid-write leaves the previous good snapshot in place; the footer
// closes the remaining hole — a torn or bit-flipped blob that still *looks*
// structurally plausible is rejected at the checksum before any field is
// trusted.  v1–v5 files carry no footer and still load.
//
// v1 files (no flags byte meaning — it was reserved padding — and none of
// the [v2+] fields) still load: the restored governor keeps its
// machine-local per-node policy knobs and every node is seeded from the
// cluster view (all gap shifts zero), so a pre-per-node snapshot
// warm-starts a per-node governor cleanly.  v2 files load the same way
// minus the copy summary (counters start at zero).  v3 files additionally
// keep the live governor's machine-local scoring mode and influence table
// (pre-v4 snapshots have no opinion on either), and v4 files keep the
// history the live governor has already accumulated (pre-v5 snapshots
// carry no migration log).  The v7 tenant lease persists the arbiter grant
// governing the instance (identity, granted budget, fair share, floor,
// borrow/lend epoch counters) so a recovered tenant resumes under its last
// grant instead of snapping back to the static config budget; pre-v7 files
// leave the live governor's lease untouched.  Loading resamples only the
// classes whose gaps
// or shifts actually differ from the live plan, so restoring a snapshot
// into an already-warm world is not a full resample storm.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/matrix.hpp"
#include "governor/governor.hpp"

namespace djvm {

inline constexpr std::uint32_t kSnapshotMagic = 0x56474A44;  // "DJGV"
/// Version written by encode_snapshot; decode also accepts the older
/// kSnapshotVersionV1..V6 layouts (read compatibility).
inline constexpr std::uint32_t kSnapshotVersion = 7;
inline constexpr std::uint32_t kSnapshotVersionV1 = 1;
inline constexpr std::uint32_t kSnapshotVersionV2 = 2;
inline constexpr std::uint32_t kSnapshotVersionV3 = 3;
/// The parser gates each section on its own pinned constant (never on the
/// moving kSnapshotVersion), so bumping the current version cannot silently
/// drop an older section from files that carry it.
inline constexpr std::uint32_t kSnapshotVersionV4 = 4;
inline constexpr std::uint32_t kSnapshotVersionV5 = 5;
/// First version carrying the CRC32 integrity footer.
inline constexpr std::uint32_t kSnapshotVersionV6 = 6;
/// First version carrying the tenant budget lease.
inline constexpr std::uint32_t kSnapshotVersionV7 = 7;

/// Serializes the governor's state, the plan's per-class gaps, and `tcm`
/// (pass the daemon's latest converged map).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Governor& gov,
                                                        const SquareMatrix& tcm);

/// Restores governor state and per-class gaps into `gov` (and its plan) and
/// writes the stored map into `tcm`: parse_snapshot, then the checks that
/// need the live registry, then apply.  The class registry must already
/// hold the snapshot's classes (warm starts re-register classes
/// deterministically).  Returns false on anything parse_snapshot rejects or
/// on unknown class ids; the governor is unchanged on failure.
[[nodiscard]] bool decode_snapshot(const std::vector<std::uint8_t>& bytes,
                                   Governor& gov, SquareMatrix& tcm);

/// File convenience wrappers.  save_snapshot writes temp-then-atomic-rename
/// (shared with the async writer), so a crash mid-save never destroys the
/// previous good file.
[[nodiscard]] bool save_snapshot(const std::string& path, const Governor& gov,
                                 const SquareMatrix& tcm);
[[nodiscard]] bool load_snapshot(const std::string& path, Governor& gov,
                                 SquareMatrix& tcm);

/// Crash recovery: tries each candidate path in order (pass newest first)
/// and restores the first snapshot that loads — missing files and blobs the
/// decoder rejects (bad magic, truncation, failed v6 checksum) are skipped,
/// not fatal.  Returns the index of the candidate that loaded, or nullopt
/// for a cold start; the governor is untouched until a candidate validates
/// fully.
[[nodiscard]] std::optional<std::size_t> recover_snapshot(
    const std::vector<std::string>& candidates, Governor& gov,
    SquareMatrix& tcm);

/// Reads a JSONL timeline (one JSON object per '\n'-terminated line, as
/// written through SnapshotWriter::append_async) for post-crash analysis.
/// A torn final line — the crash landed mid-append, leaving bytes without
/// their terminating newline — is dropped rather than returned as garbage;
/// `torn`, when non-null, reports whether that happened.  Returns every
/// complete line in file order (empty on a missing or empty file).
[[nodiscard]] std::vector<std::string> recover_timeline(
    const std::string& path, bool* torn = nullptr);

/// Registry-independent view of one snapshot.  parse_snapshot is the only
/// reader of the byte layout: decode_snapshot restores a *live* governor
/// from its result after checking class ids against the live registry, and
/// offline tooling (src/export/, tools/djvm_export) converts any v1–v7 file
/// from any run to pprof/flamegraph/JSON without reconstructing the run.
/// Kept next to the encoder because this file owns the format: a layout
/// change must update encode and parse together.
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint8_t mode = 0;
  std::uint8_t state = 0;
  bool per_node = false;
  double overhead_budget = 0.0;
  double distance_threshold = 0.0;
  double hysteresis = 0.0;
  double phase_spike_factor = 0.0;
  double node_budget = 0.0;  ///< v2+ (0 on v1 files)
  std::uint32_t sentinel_coarsen_shifts = 0;
  std::uint32_t max_nominal_gap = 0;
  std::uint64_t epochs_seen = 0;
  std::uint64_t rearms = 0;

  struct ClassGap {
    std::uint32_t id = 0;
    std::uint32_t nominal_gap = 0;
    std::uint32_t real_gap = 0;
    std::uint32_t converged_gap = 0;  ///< 0 = not captured
    bool rated = false;               ///< flags bit 0: rate ever assigned
  };
  std::vector<ClassGap> classes;

  /// Per-(node, class) gap shifts, row-major `[node * classes.size() + c]`
  /// over `shift_nodes` rows (v2+; empty on v1 files).
  std::uint32_t shift_nodes = 0;
  std::vector<std::uint8_t> node_gap_shifts;

  struct CopyNode {
    std::uint64_t registrations = 0;
    std::uint64_t resample_visits = 0;
  };
  std::vector<CopyNode> copy_nodes;  ///< v3+ cached-copy bookkeeping

  std::uint8_t backoff_scoring = 0;  ///< v4+
  bool influence_seen = false;
  double influence_decay = 0.0;
  std::vector<std::pair<std::uint32_t, double>> influence;  ///< ascending ids

  std::uint64_t migrations_executed = 0;  ///< v5+ total (counts past the cap)
  std::vector<Governor::ExecutedMigration> migrations;  ///< v5+, chronological

  std::optional<Governor::TenantLease> lease;  ///< v7+ tenant budget lease

  SquareMatrix tcm;

  /// Shift of one (node, class-index) pair; 0 past the stored table.
  [[nodiscard]] std::uint8_t shift_at(std::size_t node,
                                      std::size_t class_index) const noexcept {
    const std::size_t i = node * classes.size() + class_index;
    return node < shift_nodes && i < node_gap_shifts.size()
               ? node_gap_shifts[i]
               : 0;
  }
};

/// Parses a snapshot without touching any live state.  Returns false on bad
/// magic/version, a failed v6 CRC32 footer check, truncation, or any
/// invariant the encoder guarantees and that needs no live registry:
/// counts that cannot fit the remaining bytes, out-of-range enums,
/// inconsistent mode/state pairs, non-finite or negative knobs and TCM
/// cells, rated classes with a zero gap, padded (untrimmed) tables, and
/// migration or lease entries the live governor could never have recorded.
/// `out` is unspecified on failure.  Never throws, never reads out of
/// bounds.
[[nodiscard]] bool parse_snapshot(const std::vector<std::uint8_t>& bytes,
                                  SnapshotInfo& out);

/// Asynchronous double-buffered snapshot writer.
///
/// `save_snapshot` blocks the caller on the file write, so a daemon that
/// wants a crash-recovery snapshot every epoch stalls its epoch loop on
/// disk.  This writer encodes on the calling thread (the governor/plan state
/// must be read synchronously anyway) into a reused *back* buffer, then
/// hands the bytes to a background thread which owns the *front* buffer and
/// the file I/O.  At most one snapshot is queued: submitting while one is
/// still waiting replaces it (latest wins — an older crash-recovery
/// snapshot is strictly less useful than the newer one), so a slow disk
/// back-pressures into coalesced writes instead of an unbounded queue.
/// Buffer capacities circulate between the two slots, so steady-state
/// snapshotting allocates nothing.
class SnapshotWriter {
 public:
  SnapshotWriter();
  /// Drains the queued write (if any) and joins the worker.
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Encodes governor + TCM into the back buffer and queues it for `path`.
  void save_async(const std::string& path, const Governor& gov,
                  const SquareMatrix& tcm);

  /// Queues `line` for appending to `path` (the caller includes any trailing
  /// newline).  Unlike snapshots, appends are never coalesced away — they
  /// accumulate in a buffer the worker drains in one append-mode write, so a
  /// slow disk batches lines instead of dropping them.  One append path per
  /// writer: changing `path` mid-run redirects subsequent lines.
  void append_async(const std::string& path, std::string_view line);

  /// Blocks until every submitted snapshot and appended line has been
  /// written (or coalesced away) and the worker is idle.
  void flush();

  /// Snapshots submitted via save_async.
  [[nodiscard]] std::uint64_t submitted() const noexcept;
  /// File writes actually performed.
  [[nodiscard]] std::uint64_t completed() const noexcept;
  /// Queued snapshots replaced by a newer one before reaching disk.
  [[nodiscard]] std::uint64_t coalesced() const noexcept;
  /// Lines submitted via append_async.
  [[nodiscard]] std::uint64_t appended() const noexcept;
  /// Append-mode file writes performed (≤ appended(): lines batch).
  [[nodiscard]] std::uint64_t append_writes() const noexcept;
  /// False once any completed write failed (disk full, bad path).
  [[nodiscard]] bool all_ok() const noexcept;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< worker wakeups (pending or stop)
  std::condition_variable idle_cv_;   ///< flush wakeups (queue drained)
  std::string pending_path_;
  std::vector<std::uint8_t> pending_;  ///< queued bytes (empty = nothing queued)
  bool has_pending_ = false;
  std::string append_path_;
  std::string append_pending_;  ///< accumulated lines awaiting one append
  bool has_append_ = false;
  bool writing_ = false;
  bool stop_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t append_writes_ = 0;
  bool all_ok_ = true;
  std::vector<std::uint8_t> back_;  ///< encode buffer (caller side)
  std::thread worker_;
};

}  // namespace djvm
