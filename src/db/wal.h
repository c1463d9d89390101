// Write-ahead log.
//
// The durability substrate of the motivating application (§1: "the results of
// the transaction are installed in the database at all processors ... or at
// no processor"). Each record is framed [length][crc32c][body] and flushed on
// append; replay stops cleanly at the first torn or corrupted record, so a
// crash mid-append loses at most the record being written.
//
// Every frame is encoded in place into one buffer the log owns: the header
// is reserved, the body written behind it, and the length and CRC patched in.
// An ungrouped append is a group of one, flushed at once, so grouped and
// ungrouped appends share that one encode site and one write path
// (write_frame). The buffer keeps its capacity across flushes, so a
// steady-state append makes no heap allocation.
//
// Every append is also a numbered *injection site*: an installed WalFaultHook
// (src/faultinject) sees each framed record before it hits the file and can
// demand a torn write, a duplicated frame, or a hard crash at exactly that
// point. With no hook installed (or a hook that always answers kClean) the
// byte stream is identical to an uninstrumented log — the hook sees the
// frame that was going to be written anyway.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/types.h"

namespace rcommit::db {

enum class WalRecordType : uint8_t {
  kBegin = 1,      ///< transaction started on this shard
  kWrite = 2,      ///< staged write (key, value)
  kPrepared = 3,   ///< shard voted commit; writes are staged durably
  kCommit = 4,     ///< outcome: install the staged writes
  kAbort = 5,      ///< outcome: discard the staged writes
  kSnapshot = 6,   ///< checkpointed committed state (key, value), txn_id = 0
  kBatchSeal = 7,  ///< decision-batch membership: txn_id = batch id, value =
                   ///< member instance ids. A recovery *hint* — it lets
                   ///< RecoveryManager rerun one protocol round per batch
                   ///< instead of one per member; losing it costs only reruns,
                   ///< never correctness, so seals ride in the next group
                   ///< flush without a flush of their own.
};

struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  int64_t txn_id = 0;
  std::string key;    ///< kWrite only
  std::string value;  ///< kWrite / kPrepared (participant list)

  bool operator==(const WalRecord&) const = default;
};

/// Thrown by WriteAheadLog::append when the installed fault hook demands a
/// crash at this injection site. Models a whole-process kill: the in-memory
/// store is garbage afterwards; the only truth left is the WAL file.
class CrashInjected : public std::runtime_error {
 public:
  CrashInjected(int64_t site, const std::string& what)
      : std::runtime_error(what), site_(site) {}

  /// The global injection-site index at which the crash fired.
  [[nodiscard]] int64_t site() const { return site_; }

 private:
  int64_t site_;
};

/// What a fault hook wants done with one append.
struct WalAppendFault {
  enum class Kind : uint8_t {
    kClean,        ///< write the frame normally
    kCrashBefore,  ///< write nothing, then crash
    kTorn,         ///< write only keep_bytes of the frame, then crash
    kDuplicate,    ///< write the frame twice, keep running
    kCrashAfter,   ///< write the frame fully, then crash
  };
  Kind kind = Kind::kClean;
  /// kTorn only: bytes of the frame that reach the file, in [0, frame size).
  size_t keep_bytes = 0;
  /// Site index to report in CrashInjected (assigned by the hook).
  int64_t site = -1;
};

/// Consulted once per append with the exact bytes about to be written
/// (header + body). Implemented by faultinject::FaultInjector; the WAL layer
/// only executes the returned disposition.
class WalFaultHook {
 public:
  virtual ~WalFaultHook() = default;
  virtual WalAppendFault on_append(const std::filesystem::path& wal_path,
                                   std::span<const uint8_t> frame) = 0;
};

/// One record decoded in place: `key` and `value` point into the bytes it
/// was decoded from and are valid only as long as those are.
struct WalRecordView {
  WalRecordType type = WalRecordType::kBegin;
  int64_t txn_id = 0;
  std::string_view key;
  std::string_view value;
};

/// A log file read into memory with one bulk read. Construction also walks
/// the frame headers (no CRC, no decode) and counts the frames of each type,
/// so a reader can size its indexes before it folds the records in.
class WalImage {
 public:
  /// Reads the log at `path`; a missing or empty file is an empty image.
  explicit WalImage(const std::filesystem::path& path);

  /// Frames of `type` the headers name: an upper bound on the intact ones,
  /// since the count comes before any CRC check or decode.
  [[nodiscard]] int64_t frames(WalRecordType type) const {
    return frames_[static_cast<size_t>(type)];
  }

  /// Decodes every intact frame in file order and hands it to `visit` as a
  /// WalRecordView into this image, stopping (without throwing) at the first
  /// torn or corrupt frame: everything before it is trustworthy, everything
  /// after is garbage from an interrupted append. A frame whose CRC matches
  /// but whose body does not decode, or whose type byte is outside
  /// WalRecordType, is treated the same way. Returns the byte offset where
  /// trust ends (0 for an empty image).
  template <typename Visit>
  size_t decode(Visit&& visit) const;

 private:
  std::vector<uint8_t> bytes_;
  std::array<int64_t, 8> frames_{};  ///< indexed by type byte
};

/// Receives each intact record of a log, in file order.
using WalVisitor = std::function<void(WalRecord&&)>;

/// Reads the log at `path` (WalImage) and hands every intact record to
/// `visit` as an owning WalRecord. Returns the byte offset where trust ends.
size_t scan_wal(const std::filesystem::path& path, const WalVisitor& visit);

/// Encodes a participant shard list into the kPrepared record's value field
/// (comma-separated decimal, e.g. "0,2,5"). An empty list encodes as "" —
/// byte-identical to the pre-participant-list record format, which is how
/// legacy WALs and direct KvStore::prepare calls without a list stay valid.
[[nodiscard]] std::string encode_participant_list(const std::vector<int32_t>& ids);
/// Inverse of encode_participant_list; "" decodes to the empty list. Throws
/// CheckFailure on malformed input: an empty part, a non-digit or a value
/// above INT32_MAX (the record's CRC already passed, so a parse failure here
/// is a logic bug, not corruption).
[[nodiscard]] std::vector<int32_t> decode_participant_list(std::string_view text);
/// decode_participant_list into `ids`, reusing its capacity.
void decode_participant_list(std::string_view text, std::vector<int32_t>& ids);

/// Encodes a kBatchSeal member list (64-bit instance ids, comma-separated
/// decimal) into the record's value field. Same format family as the
/// participant list, widened to the multi-shot txn-id space.
[[nodiscard]] std::string encode_txn_list(const std::vector<int64_t>& ids);
/// Inverse of encode_txn_list; "" decodes to the empty list. Throws
/// CheckFailure on malformed input, as decode_participant_list does, with
/// INT64_MAX as the bound.
[[nodiscard]] std::vector<int64_t> decode_txn_list(std::string_view text);

/// Monotonic WAL counters. `records_appended` counts logical appends
/// (buffered appends included); `flushes` counts physical write+flush calls,
/// so records_appended / flushes is the group-commit amortization factor the
/// benchmarks report.
struct WalStats {
  int64_t records_appended = 0;
  int64_t flushes = 0;
  int64_t bytes_written = 0;

  [[nodiscard]] double records_per_flush() const {
    return flushes == 0 ? 0.0
                        : static_cast<double>(records_appended) /
                              static_cast<double>(flushes);
  }
};

/// Group-commit bounds. A group auto-flushes when either limit is reached,
/// so flush boundaries are a pure function of the append sequence — which
/// keeps fault-injection sites enumerable and replayable under group mode.
struct WalGroupLimits {
  int64_t max_records = 256;
  size_t max_bytes = 256 * 1024;
};

/// Limits that never auto-flush: the whole group reaches the file in one
/// write at end_group (checkpoint's rewrite, recovery's outcome groups).
inline constexpr WalGroupLimits kSingleFlushGroup{
    .max_records = std::numeric_limits<int64_t>::max(),
    .max_bytes = std::numeric_limits<size_t>::max()};

class WriteAheadLog {
 public:
  /// Opens (creating if absent) the log at `path` for appending, after a
  /// scan that finds where its intact prefix ends.
  explicit WriteAheadLog(std::filesystem::path path);
  /// Opens the log at `path` for appending when the caller has already
  /// decoded it: `valid_end` is WalImage::decode's result for the file as it
  /// is now. An owner rebuilding its state from the log so decodes it once.
  WriteAheadLog(std::filesystem::path path, size_t valid_end);

  /// Appends one record, framed and checksummed into the pending buffer.
  /// Outside group mode that one-frame group is written and flushed
  /// immediately, with the installed fault hook's verdict for this site
  /// executed (which may throw CrashInjected). Inside group mode the frame
  /// stays buffered; it reaches the file — and the fault hook — at the next
  /// group flush.
  void append(const WalRecord& record);

  // --- group commit ----------------------------------------------------------
  //
  // Between begin_group() and end_group(), appends coalesce into one pending
  // byte run that hits the file with ONE physical flush — and ONE fault-hook
  // consult, whose frame is the whole group. The serial fault kinds map onto
  // the group-boundary crash sites directly: kCrashBefore loses the entire
  // buffered group (a crash between the last batched append and the group
  // flush), kTorn tears mid-group (frames past the tear are lost, the WAL
  // ctor truncates the ragged tail), kDuplicate doubles the whole group
  // (replay is idempotent record by record). A crash disposition empties the
  // pending buffer as it unwinds: the crashed group is gone, exactly as a
  // real power cut would leave it. Destruction with a pending group likewise
  // drops it unflushed — owners flush at their commit points, never from a
  // destructor (a destructor flush would model a dead process writing).

  /// Enters group mode. Must not already be in group mode.
  void begin_group(const WalGroupLimits& limits = {});
  /// Flushes the pending group (no-op when empty) and stays in group mode.
  void commit_group();
  /// Flushes the pending group and leaves group mode.
  void end_group();
  [[nodiscard]] bool group_open() const { return group_open_; }

  /// Reads every intact record from the start of the log on disk (see
  /// scan_wal for where reading stops).
  [[nodiscard]] std::vector<WalRecord> replay() const;

  /// Installs (or clears, with nullptr) the per-append fault hook. Non-owning.
  void set_fault_hook(WalFaultHook* hook) { fault_hook_ = hook; }

  /// Atomically replaces the log at `target` with this one (a rename) and
  /// keeps appending to it there: path(), which the fault hook is shown,
  /// becomes `target`, and stats() restart at zero, as a freshly opened
  /// log's would. Not in group mode.
  void replace(const std::filesystem::path& target);

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] int64_t records_appended() const {
    return stats_.records_appended;
  }
  [[nodiscard]] const WalStats& stats() const { return stats_; }

 private:
  /// Writes `bytes` (one frame, or a whole pending group) through the fault
  /// hook and flushes. May throw CrashInjected per the hook's verdict.
  void write_frame(std::span<const uint8_t> bytes);
  /// Flushes the pending group buffer, if any.
  void flush_pending();

  std::filesystem::path path_;
  std::ofstream out_;
  WalStats stats_;
  WalFaultHook* fault_hook_ = nullptr;
  bool group_open_ = false;
  WalGroupLimits limits_;
  /// Concatenated frames awaiting the flush, encoded in place; reused (its
  /// capacity kept) across flushes.
  BufWriter pending_;
  int64_t pending_records_ = 0;
};

// --- WalImage::decode ----------------------------------------------------------
//
// A template so the caller's fold inlines into the frame loop: no
// std::function hop, no owning copy of a record it does not keep.

namespace wal_detail {

/// Decodes one frame body in place; throws CodecError if it is malformed.
inline WalRecordView decode_body(std::span<const uint8_t> body) {
  BufReader r(body);
  const uint8_t raw_type = r.u8();
  // An unchecked enum cast would let a type byte outside WalRecordType sail
  // through recovery's switches unmatched — silently dropping a record whose
  // CRC said it was intact. Reject it instead: replay stops here and trusts
  // nothing after (same policy as a CRC mismatch).
  if (raw_type < static_cast<uint8_t>(WalRecordType::kBegin) ||
      raw_type > static_cast<uint8_t>(WalRecordType::kBatchSeal)) {
    throw_codec_error("unknown WAL record type");
  }
  WalRecordView record;
  record.type = static_cast<WalRecordType>(raw_type);
  record.txn_id = r.svarint();
  record.key = r.str_view();
  record.value = r.str_view();
  if (!r.exhausted()) throw_codec_error("trailing bytes in WAL record");
  return record;
}

}  // namespace wal_detail

template <typename Visit>
size_t WalImage::decode(Visit&& visit) const {
  const std::span<const uint8_t> bytes(bytes_);
  size_t valid_end = 0;
  while (bytes.size() - valid_end >= 8) {
    BufReader header(bytes.subspan(valid_end, 8));
    const uint32_t length = header.u32();
    const uint32_t crc = header.u32();
    if (length > bytes.size() - valid_end - 8) break;  // torn final record
    const auto body = bytes.subspan(valid_end + 8, length);
    if (crc32c(body) != crc) break;  // corrupt record: trust nothing after it
    WalRecordView record;
    try {
      record = wal_detail::decode_body(body);
    } catch (const CodecError&) {
      break;  // structurally invalid despite matching CRC — stop here
    }
    visit(record);
    valid_end += 8 + length;
  }
  return valid_end;
}

}  // namespace rcommit::db
