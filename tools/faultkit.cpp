// faultkit — crash-point fault-injection driver.
//
// Modes (pick one):
//   --enumerate          list the reachable WAL injection sites of the workload
//   --sweep              exhaustive (site × kind) recovery-equivalence sweep;
//                        failures are shrunk and written as artifacts
//   --replay             run one crash point: --site=N --kind=K [--arg=A]
//   --artifact=<dir>     replay a saved artifact and diff against its report;
//                        exit 2 if it is missing, malformed or out of range
//
// Workload knobs (--seed --shards --batches --batch-size --fanout --keys
// --group-commit --decision-batch) feed MultiTortureOptions: the pipelined
// MultiShotDb workload, where a crash leaves many transactions in doubt per
// shard; --batch-size=1 runs one transaction at a time. A sweep failure is
// reproducible from (seed, site) alone — see docs/fault-injection.md for the
// repro recipe CI prints.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/check.h"
#include "common/flags.h"
#include "faultinject/torture.h"

namespace {

namespace fs = std::filesystem;
using namespace rcommit;
using namespace rcommit::faultinject;

const std::vector<FlagDoc> kDocs = {
    {"enumerate", "", "list reachable WAL injection sites"},
    {"sweep", "", "exhaustive (site x kind) recovery-equivalence sweep"},
    {"replay", "", "run one crash point (--site, --kind, --arg)"},
    {"artifact", "dir", "replay a saved artifact; exit 1 on report mismatch, 2 if "
                         "malformed"},
    {"site", "N", "WAL site for --replay"},
    {"kind", "name", "fault kind for --replay (crash-before, torn, "
                     "partial-flush, duplicate, crash-after)"},
    {"arg", "N", "fault argument for --replay (torn-byte draw, ...)"},
    {"save", "dir", "with --replay: also write the crash point as an artifact"},
    {"seed", "N", "workload seed (default 1)"},
    {"shards", "N", "shard count (default 3)"},
    {"fanout", "N", "shards per transaction (default 2)"},
    {"keys", "N", "keys per shard (default 4)"},
    {"batches", "N", "pipelined batches (default 3)"},
    {"batch-size", "N", "in-flight txns per batch (default 8)"},
    {"group-commit", "", "group-commit WAL mode (sites move to group-flush "
                         "boundaries)"},
    {"decision-batch", "N", "prepared txns decided per protocol round (default 1)"},
    {"threads", "N", "sweep parallelism (default 1)"},
    {"max-sites", "N", "cap swept sites; -1 = all (default)"},
    {"artifacts", "dir", "where --sweep writes shrunk failure artifacts"},
    {"dir", "path", "scratch directory (default: under the system temp dir)"},
};
const char kSummary[] = "deterministic crash-point fault injection driver";

void print_result(const CrashPointResult& result) {
  std::cout << result.serialize();
}

void print_sites(const std::vector<SiteInfo>& sites) {
  std::cout << "# site  wal  record_type  frame_size\n";
  for (const auto& site : sites) {
    std::cout << site.site << "  " << site.wal_name << "  "
              << static_cast<int>(site.record_type) << "  " << site.frame_size
              << "\n";
  }
  std::cout << sites.size() << " reachable WAL sites\n";
}

int run_sweep(const MultiTortureOptions& options, const SweepOptions& sweep,
              const std::string& artifacts_dir) {
  const auto result = run_wal_sweep(options, sweep);
  std::cout << "sites=" << result.sites << " crash_points=" << result.crash_points
            << " failures=" << result.failures.size() << "\n";
  int index = 0;
  for (const auto& failure : result.failures) {
    std::cout << "\nFAIL plan:\n" << failure.plan.serialize() << "result:\n";
    print_result(failure.result);
    if (artifacts_dir.empty()) continue;
    const FaultPlan shrunk = shrink_fault_plan(options, failure.plan);
    MultiTortureOptions replay_options = options;
    replay_options.scratch_dir = options.scratch_dir / "artifact-replay";
    const CrashPointResult expected = run_crash_point(replay_options, shrunk);
    fs::remove_all(replay_options.scratch_dir);
    const fs::path dir = fs::path(artifacts_dir) / ("fault-" + std::to_string(index++));
    write_fault_artifact(dir, {options, shrunk, expected});
    std::cout << "artifact: " << dir.string() << "\n";
    std::cout << "reproduce: faultkit --artifact=" << dir.string() << "\n";
  }
  return result.ok() ? 0 : 1;
}

int run_replay(const MultiTortureOptions& options, int64_t site,
               const std::string& kind_name, uint64_t arg, const std::string& save_dir) {
  const FaultKind kind = parse_fault_kind(kind_name);
  RCOMMIT_CHECK_MSG(is_wal_kind(kind), "--replay takes a WAL fault kind");
  const FaultPlan plan = FaultPlan::wal_fault_at(site, kind, arg);
  const auto result = run_crash_point(options, plan);
  print_result(result);
  if (!save_dir.empty()) {
    write_fault_artifact(save_dir, {options, plan, result});
    std::cout << "artifact: " << save_dir << "\n";
  }
  return result.ok() ? 0 : 1;
}

int run_artifact(const fs::path& dir, const fs::path& scratch) {
  FaultArtifact artifact;
  CrashPointResult result;
  try {
    artifact = load_fault_artifact(dir);
    // The engines check the loaded options' ranges (a shard count below 1,
    // ...) as they start.
    result = replay_fault_artifact(artifact, scratch);
  } catch (const CheckFailure& failure) {
    std::cerr << "faultkit: cannot replay " << dir.string() << ": "
              << failure.what() << "\n";
    return 2;
  }
  if (result == artifact.expected) {
    std::cout << "replay matches " << (dir / "report.txt").string() << "\n";
    print_result(result);
    return result.ok() ? 0 : 1;
  }
  std::cout << "REPLAY MISMATCH\nexpected:\n"
            << artifact.expected.serialize() << "got:\n";
  print_result(result);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  if (flags.has("help")) {
    Flags::print_usage(std::cout, flags.program(), kSummary, kDocs);
    (void)flags.get_bool("help", false);
    return 0;
  }

  MultiTortureOptions options;
  options.seed = static_cast<uint64_t>(flags.get_int("seed", 1));
  options.shard_count = static_cast<int32_t>(flags.get_int("shards", 3));
  options.fanout = static_cast<int32_t>(flags.get_int("fanout", 2));
  options.keys_per_shard = static_cast<int32_t>(flags.get_int("keys", 4));
  options.batches = static_cast<int32_t>(flags.get_int("batches", 3));
  options.batch_size = static_cast<int32_t>(flags.get_int("batch-size", 8));
  options.group_commit = flags.get_bool("group-commit", false);
  options.decision_batch = static_cast<int32_t>(flags.get_int("decision-batch", 1));
  options.scratch_dir = flags.get_string(
      "dir", (fs::temp_directory_path() / "faultkit-scratch").string());

  const bool enumerate = flags.get_bool("enumerate", false);
  const bool sweep = flags.get_bool("sweep", false);
  const bool replay = flags.get_bool("replay", false);
  const std::string artifact = flags.get_string("artifact", "");

  SweepOptions sweep_options;
  sweep_options.threads = static_cast<int>(flags.get_int("threads", 1));
  sweep_options.max_sites = flags.get_int("max-sites", -1);
  const std::string artifacts_dir = flags.get_string("artifacts", "");
  const int64_t site = flags.get_int("site", 0);
  const std::string kind = flags.get_string("kind", "crash-after");
  const auto arg = static_cast<uint64_t>(flags.get_int("arg", 0));
  const std::string save_dir = flags.get_string("save", "");

  if (!flags.check_unknown(std::cerr, kSummary, kDocs)) return 2;
  const int modes = (enumerate ? 1 : 0) + (sweep ? 1 : 0) + (replay ? 1 : 0) +
                    (artifact.empty() ? 0 : 1);
  if (modes != 1) {
    std::cerr << "pick exactly one of --enumerate, --sweep, --replay, "
                 "--artifact=<dir>\n";
    Flags::print_usage(std::cerr, flags.program(), kSummary, kDocs);
    return 2;
  }

  int exit_code = 0;
  if (!artifact.empty()) {
    exit_code = run_artifact(artifact, options.scratch_dir);
  } else if (enumerate) {
    print_sites(enumerate_sites(options));
  } else if (sweep) {
    exit_code = run_sweep(options, sweep_options, artifacts_dir);
  } else {
    exit_code = run_replay(options, site, kind, arg, save_dir);
  }
  fs::remove_all(options.scratch_dir);
  return exit_code;
}
