#include "db/wal.h"

#include <algorithm>
#include <charconv>

#include "common/check.h"
#include "common/codec.h"

namespace rcommit::db {

namespace {

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
void decode_id_list(std::string_view text, const char* what, std::vector<T>& ids) {
  ids.clear();
  if (text.empty()) return;
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
    if (next == end) return;
    part = next + 1;  // past the comma
  }
}

}  // namespace

WalImage::WalImage(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.is_open() ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size <= 0) return;
  bytes_.resize(static_cast<size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes_.data()), static_cast<std::streamsize>(bytes_.size()));
  bytes_.resize(static_cast<size_t>(in.gcount()));

  // Header walk: each frame's length and type byte only. A frame that the
  // decode later rejects is still counted, so the counts are upper bounds.
  const std::span<const uint8_t> bytes(bytes_);
  for (size_t at = 0; bytes.size() - at > 8;) {
    const uint32_t length = BufReader(bytes.subspan(at, 4)).u32();
    if (length == 0 || length > bytes.size() - at - 8) break;
    const uint8_t type = bytes[at + 8];
    if (type < frames_.size()) ++frames_[type];
    at += 8 + length;
  }
}

size_t scan_wal(const std::filesystem::path& path, const WalVisitor& visit) {
  return WalImage(path).decode([&visit](const WalRecordView& record) {
    if (visit) {
      visit(WalRecord{record.type, record.txn_id, std::string(record.key),
                      std::string(record.value)});
    }
  });
}

std::string encode_participant_list(const std::vector<int32_t>& ids) {
  return encode_id_list(ids);
}

std::vector<int32_t> decode_participant_list(std::string_view text) {
  std::vector<int32_t> ids;
  decode_participant_list(text, ids);
  return ids;
}

void decode_participant_list(std::string_view text, std::vector<int32_t>& ids) {
  decode_id_list<int32_t>(text, "participant list", ids);
}

std::string encode_txn_list(const std::vector<int64_t>& ids) { return encode_id_list(ids); }

std::vector<int64_t> decode_txn_list(std::string_view text) {
  std::vector<int64_t> ids;
  decode_id_list<int64_t>(text, "txn list", ids);
  return ids;
}

WriteAheadLog::WriteAheadLog(std::filesystem::path path)
    : WriteAheadLog(path, WalImage(path).decode([](const WalRecordView&) {})) {}

WriteAheadLog::WriteAheadLog(std::filesystem::path path, size_t valid_end)
    : path_(std::move(path)) {
  // Replay stops at the first torn/corrupt frame and trusts nothing after it
  // — so anything appended after such a frame would be unreachable forever.
  // Make the distrust durable: truncate the invalid tail before appending.
  // (The crash-point torture suite caught exactly this: recovery's COMMIT
  // record landing after a torn frame, lost on the next open.)
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  if (!ec && size > valid_end) std::filesystem::resize_file(path_, valid_end);
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

void WriteAheadLog::replace(const std::filesystem::path& target) {
  RCOMMIT_CHECK_MSG(!group_open_, "replace with a group open");
  std::filesystem::rename(path_, target);
  path_ = target;
  stats_ = {};
}

std::vector<WalRecord> WriteAheadLog::replay() const {
  std::vector<WalRecord> records;
  scan_wal(path_, [&records](WalRecord&& record) { records.push_back(std::move(record)); });
  return records;
}

}  // namespace rcommit::db
