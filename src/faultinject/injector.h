// The WAL-side fault injector.
//
// Implements db::WalFaultHook: numbers every WriteAheadLog append it
// observes (globally, across all shards, in append order) and answers with
// the plan's disposition for that site. With an empty plan it is a pure
// observer — the byte stream written is identical to an uninstrumented run —
// which doubles as the site enumerator: run the workload once under
// FaultPlan::none() and sites_seen() is the reachable-site count.
//
// Deterministic single-threaded core: the torture harness's workload driver
// (MultiShotDb::execute_pipelined on the simulator) appends from one thread.
// Threaded RPC deployments inject at the network layer (netfault.h) instead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/wal.h"
#include "faultinject/plan.h"

namespace rcommit::faultinject {

/// What one injection site turned out to be, recorded as the run reaches it.
struct SiteInfo {
  int64_t site = 0;
  std::string wal_name;     ///< filename of the WAL appended to
  uint8_t record_type = 0;  ///< WalRecordType byte of the record
  size_t frame_size = 0;    ///< full frame bytes (header + body)
  FaultKind fired = FaultKind::kNone;  ///< fault executed here, if any
};

class FaultInjector final : public db::WalFaultHook {
 public:
  explicit FaultInjector(FaultPlan plan);

  db::WalAppendFault on_append(const std::filesystem::path& wal_path,
                               std::span<const uint8_t> frame) override;

  /// Sites observed so far (== appends attempted).
  [[nodiscard]] int64_t sites_seen() const { return next_site_; }
  /// How many times each fault kind fired.
  [[nodiscard]] int64_t fired(FaultKind kind) const;
  /// Per-site record, in site order.
  [[nodiscard]] const std::vector<SiteInfo>& sites() const { return sites_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  int64_t next_site_ = 0;
  std::vector<SiteInfo> sites_;
  std::map<FaultKind, int64_t> fired_;
};

}  // namespace rcommit::faultinject
