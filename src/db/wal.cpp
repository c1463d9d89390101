#include "db/wal.h"

#include <algorithm>
#include <charconv>

#include "common/check.h"
#include "common/codec.h"

namespace rcommit::db {

namespace {

WalRecord decode_record(std::span<const uint8_t> body) {
  BufReader r(body);
  WalRecord record;
  const uint8_t raw_type = r.u8();
  // An unchecked enum cast would let a type byte outside WalRecordType sail
  // through recovery's switches unmatched — silently dropping a record whose
  // CRC said it was intact. Reject it instead: replay stops here and trusts
  // nothing after (same policy as a CRC mismatch).
  if (raw_type < static_cast<uint8_t>(WalRecordType::kBegin) ||
      raw_type > static_cast<uint8_t>(WalRecordType::kBatchSeal)) {
    throw CodecError("unknown WAL record type " + std::to_string(raw_type));
  }
  record.type = static_cast<WalRecordType>(raw_type);
  record.txn_id = r.svarint();
  record.key = r.str();
  record.value = r.str();
  if (!r.exhausted()) throw CodecError("trailing bytes in WAL record");
  return record;
}

/// Comma-separated decimal, as the list codecs below write it.
template <typename T>
std::string encode_id_list(const std::vector<T>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

/// Inverse of encode_id_list, parsed in place: "" is the empty list; an
/// empty part, anything but digits, or a value above T's maximum fails the
/// check, naming the list as `what`.
template <typename T>
std::vector<T> decode_id_list(const std::string& text, const char* what) {
  std::vector<T> ids;
  if (text.empty()) return ids;
  ids.reserve(static_cast<size_t>(std::count(text.begin(), text.end(), ',')) + 1);
  const char* const end = text.data() + text.size();
  const char* part = text.data();
  while (true) {
    T id{};
    // from_chars takes a leading '-' for signed T, so require a digit first.
    const auto [next, error] = std::from_chars(part, end, id);
    RCOMMIT_CHECK_MSG(part != end && *part >= '0' && *part <= '9' &&
                          error == std::errc{} && (next == end || *next == ','),
                      "malformed " << what << ": '" << text << "'");
    ids.push_back(id);
    if (next == end) return ids;
    part = next + 1;  // past the comma
  }
}

}  // namespace

size_t scan_wal(const std::filesystem::path& path, const WalVisitor& visit) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.is_open() ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size <= 0) return 0;
  std::vector<uint8_t> file_bytes(static_cast<size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(file_bytes.data()),
          static_cast<std::streamsize>(file_bytes.size()));
  file_bytes.resize(static_cast<size_t>(in.gcount()));

  size_t valid_end = 0;
  while (valid_end + 8 <= file_bytes.size()) {
    BufReader header(std::span<const uint8_t>(file_bytes.data() + valid_end, 8));
    const uint32_t length = header.u32();
    const uint32_t crc = header.u32();
    if (length > file_bytes.size() - valid_end - 8) break;  // torn final record
    const std::span<const uint8_t> body(file_bytes.data() + valid_end + 8, length);
    if (crc32c(body) != crc) break;  // corrupt record: trust nothing after it
    WalRecord record;
    try {
      record = decode_record(body);
    } catch (const CodecError&) {
      break;  // structurally invalid despite matching CRC — stop here
    }
    if (visit) visit(std::move(record));
    valid_end += 8 + length;
  }
  return valid_end;
}

std::string encode_participant_list(const std::vector<int32_t>& ids) {
  return encode_id_list(ids);
}

std::vector<int32_t> decode_participant_list(const std::string& text) {
  return decode_id_list<int32_t>(text, "participant list");
}

std::string encode_txn_list(const std::vector<int64_t>& ids) { return encode_id_list(ids); }

std::vector<int64_t> decode_txn_list(const std::string& text) {
  return decode_id_list<int64_t>(text, "txn list");
}

WriteAheadLog::WriteAheadLog(std::filesystem::path path, const WalVisitor& visit)
    : path_(std::move(path)) {
  // Replay stops at the first torn/corrupt frame and trusts nothing after it
  // — so anything appended after such a frame would be unreachable forever.
  // Make the distrust durable: truncate the invalid tail before appending.
  // (The crash-point torture suite caught exactly this: recovery's COMMIT
  // record landing after a torn frame, lost on the next open.)
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  if (!ec && size > 0) {
    const size_t valid_end = scan_wal(path_, visit);
    if (valid_end < size) std::filesystem::resize_file(path_, valid_end);
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  RCOMMIT_CHECK_MSG(out_.is_open(), "cannot open WAL at " << path_.string());
}

void WriteAheadLog::append(const WalRecord& record) {
  // Encode the frame in place at the end of the pending buffer: reserve the
  // [length][crc32c] header, write the body after it, then patch the header
  // from the body. Once the buffer has grown to its largest group, an append
  // allocates nothing.
  const size_t frame_start = pending_.size();
  pending_.u32(0);
  pending_.u32(0);
  pending_.u8(static_cast<uint8_t>(record.type));
  pending_.svarint(record.txn_id);
  pending_.str(record.key);
  pending_.str(record.value);
  const auto body = std::span<const uint8_t>(pending_.data()).subspan(frame_start + 8);
  pending_.patch_u32(frame_start, static_cast<uint32_t>(body.size()));
  pending_.patch_u32(frame_start + 4, crc32c(body));
  ++pending_records_;

  if (group_open_) {
    ++stats_.records_appended;
    // Deterministic auto-flush: the boundary depends only on the append
    // sequence, never on timing, so injection sites stay enumerable.
    if (pending_records_ >= limits_.max_records ||
        pending_.size() >= limits_.max_bytes) {
      flush_pending();
    }
    return;
  }

  // Outside group mode an append is a group of one, flushed at once.
  flush_pending();
  ++stats_.records_appended;
}

void WriteAheadLog::write_frame(std::span<const uint8_t> bytes) {
  WalAppendFault fault;
  if (fault_hook_ != nullptr) {
    fault = fault_hook_->on_append(path_, bytes);
  }

  const auto write_bytes = [this](std::span<const uint8_t> span) {
    out_.write(reinterpret_cast<const char*>(span.data()),
               static_cast<std::streamsize>(span.size()));
    out_.flush();
    ++stats_.flushes;
    stats_.bytes_written += static_cast<int64_t>(span.size());
    RCOMMIT_CHECK_MSG(out_.good(), "WAL append failed at " << path_.string());
  };

  switch (fault.kind) {
    case WalAppendFault::Kind::kClean:
      write_bytes(bytes);
      break;
    case WalAppendFault::Kind::kCrashBefore:
      throw CrashInjected(fault.site,
                          "injected crash before WAL append at " + path_.string());
    case WalAppendFault::Kind::kTorn: {
      RCOMMIT_CHECK_MSG(fault.keep_bytes < bytes.size(),
                        "torn write must keep fewer than frame bytes");
      write_bytes(bytes.subspan(0, fault.keep_bytes));
      throw CrashInjected(fault.site, "injected torn write (" +
                                          std::to_string(fault.keep_bytes) + "/" +
                                          std::to_string(bytes.size()) +
                                          " bytes) at " + path_.string());
    }
    case WalAppendFault::Kind::kDuplicate:
      write_bytes(bytes);
      write_bytes(bytes);
      break;
    case WalAppendFault::Kind::kCrashAfter:
      write_bytes(bytes);
      throw CrashInjected(fault.site,
                          "injected crash after WAL append at " + path_.string());
  }
}

void WriteAheadLog::begin_group(const WalGroupLimits& limits) {
  RCOMMIT_CHECK_MSG(!group_open_, "begin_group with a group already open");
  RCOMMIT_CHECK(limits.max_records > 0 && limits.max_bytes > 0);
  limits_ = limits;
  group_open_ = true;
}

void WriteAheadLog::commit_group() {
  RCOMMIT_CHECK_MSG(group_open_, "commit_group without an open group");
  flush_pending();
}

void WriteAheadLog::end_group() {
  RCOMMIT_CHECK_MSG(group_open_, "end_group without an open group");
  flush_pending();
  group_open_ = false;
}

void WriteAheadLog::flush_pending() {
  if (pending_.size() == 0) return;
  // Empty the buffer however write_frame leaves: a crash verdict unwinds out
  // of it, and the crashed group's bytes must be gone — a later flush
  // replaying them would model a dead process writing. clear() keeps the
  // capacity for the next group.
  struct ClearPending {
    WriteAheadLog& wal;
    ~ClearPending() {
      wal.pending_.clear();
      wal.pending_records_ = 0;
    }
  } clear_pending{*this};
  write_frame(std::span<const uint8_t>(pending_.data()));
}

std::vector<WalRecord> WriteAheadLog::replay() const {
  std::vector<WalRecord> records;
  scan_wal(path_, [&records](WalRecord&& record) { records.push_back(std::move(record)); });
  return records;
}

}  // namespace rcommit::db
