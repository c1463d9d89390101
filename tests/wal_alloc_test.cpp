// Zero-allocation gate for steady-state WAL appends.
//
// This binary replaces the global operator new with a counting one (the
// technique bench_simperf uses for the simulator's hot path). After a
// warm-up that grows the log's reusable frame buffer to its largest group,
// grouped and ungrouped appends must make no heap allocation at all. The gate
// is a count, not a timing, so it holds on any machine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include "db/wal.h"

// The replacement operators below pair malloc with free by design; GCC's
// inlining-based new/delete matcher cannot see that pairing and misfires at
// call sites inlined into this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
uint64_t g_heap_allocs = 0;  // the counted regions are single-threaded
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rcommit::db {
namespace {

namespace fs = std::filesystem;

/// One KvStore-shaped transaction: BEGIN, two WRITEs, PREPARED with its
/// participant list, COMMIT. Built before counting starts, so only the
/// appends themselves are measured.
std::vector<WalRecord> txn_records() {
  return {
      {WalRecordType::kBegin, 1001, "", ""},
      {WalRecordType::kWrite, 1001, "account-000017", std::string(24, 'v')},
      {WalRecordType::kWrite, 1001, "account-004242", std::string(24, 'w')},
      {WalRecordType::kPrepared, 1001, "", encode_participant_list({0, 1, 2})},
      {WalRecordType::kCommit, 1001, "", ""},
  };
}

/// Heap allocations made by `appends` appends of `records`, cycled.
uint64_t allocs_during(WriteAheadLog& wal, const std::vector<WalRecord>& records,
                       int appends) {
  const uint64_t before = g_heap_allocs;
  for (int i = 0; i < appends; ++i) {
    wal.append(records[static_cast<size_t>(i) % records.size()]);
  }
  return g_heap_allocs - before;
}

TEST(WalAlloc, SteadyStateAppendsMakeNoHeapAllocation) {
  const fs::path path = fs::temp_directory_path() /
                        ("rcommit_wal_alloc_test_" + std::to_string(::getpid()) + ".wal");
  fs::remove(path);
  constexpr int kAppends = 4096;
  const auto records = txn_records();
  {
    WriteAheadLog wal(path);
    // Grouped, auto-flushing every 256 records. 256 % 5 == 1, so five full
    // groups of warm-up cover every phase of the record cycle at a group
    // start, and with it the largest group.
    wal.begin_group({.max_records = 256});
    (void)allocs_during(wal, records, 5 * 256);
    const int64_t flushes_before = wal.stats().flushes;
    EXPECT_EQ(allocs_during(wal, records, kAppends), 0u);
    EXPECT_EQ(wal.stats().flushes - flushes_before, kAppends / 256);
    wal.end_group();

    // Ungrouped: each append is a group of one, flushed at once.
    (void)allocs_during(wal, records, 16);
    EXPECT_EQ(allocs_during(wal, records, kAppends), 0u);
    EXPECT_EQ(wal.stats().records_appended, 5 * 256 + kAppends + 16 + kAppends);
  }
  fs::remove(path);
}

}  // namespace
}  // namespace rcommit::db
