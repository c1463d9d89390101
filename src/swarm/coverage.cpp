#include "swarm/coverage.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/codec.h"
#include "common/json.h"
#include "swarm/artifacts.h"
#include "swarm/pool.h"
#include "swarm/shrink.h"

namespace rcommit::swarm {

namespace {

// The same coordinate-mixing step enumerate_cells uses (matrix.cpp), so
// chain and run seeds inherit its property: extending one axis never
// perturbs the seeds of existing coordinates.
uint64_t mix(uint64_t h, uint64_t coord) {
  return SplitMix64(h ^ (coord + 0x9e3779b97f4a7c15ULL)).next();
}

void put_u8(std::vector<uint8_t>& bytes, uint8_t v) { bytes.push_back(v); }

void put_u32(std::vector<uint8_t>& bytes, uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<uint8_t>& bytes, uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

/// log2 bucket of a non-negative magnitude: 0 for 0, else bit_width
/// (1..2→1..2, 3..4→3, 5..8→4, ...). Collapsing magnitudes to ~64 buckets
/// is what bounds the fingerprint space (coverage.h).
uint8_t log2_bucket(int64_t v) {
  if (v <= 0) return 0;
  return static_cast<uint8_t>(std::bit_width(static_cast<uint64_t>(v)));
}

}  // namespace

uint64_t run_fingerprint(const CellConfig& config, const sim::RunResult& result,
                         const sim::RecordedSchedule& executed, int stages) {
  std::vector<uint8_t> bytes;
  bytes.reserve(64 + 4 * result.decisions.size());
  put_u8(bytes, 0);  // salt slot, rewritten per pass below
  // Cell shape — not the seed (behavior twins across seeds must collide)
  // and not the adversary kind (a mutated schedule has no kind). Byzantine
  // victim plans ARE included: they are fleet-side (derived from the config,
  // not the schedule), so a mutated schedule still runs against the same
  // traitors — runs with different traitor sets live in different regions of
  // the behavior space and must not collide.
  put_u8(bytes, static_cast<uint8_t>(config.protocol));
  put_u32(bytes, static_cast<uint32_t>(config.n));
  put_u64(bytes, static_cast<uint64_t>(config.k));
  for (const auto& plan : cell_byzantine_plans(config)) {
    put_u32(bytes, static_cast<uint32_t>(plan.victim));
    put_u8(bytes, log2_bucket(plan.from_clock));
  }

  put_u8(bytes, static_cast<uint8_t>(result.status));
  for (size_t p = 0; p < result.decisions.size(); ++p) {
    uint8_t flags = 0;
    if (result.crashed[p]) flags |= 1;
    if (result.decisions[p].has_value()) flags |= 2;
    put_u8(bytes, flags);
    put_u8(bytes, result.decisions[p].has_value()
                      ? static_cast<uint8_t>(*result.decisions[p])
                      : 0xff);
    // Round profile: the decide clock's log2 bucket stands in for the round
    // number (both grow together; the bucket is computable trace-free).
    put_u8(bytes, result.decide_clock[p].has_value()
                      ? log2_bucket(*result.decide_clock[p])
                      : 0xff);
  }
  put_u32(bytes, static_cast<uint32_t>(stages));
  put_u8(bytes, log2_bucket(result.events));
  put_u8(bytes, log2_bucket(result.messages_sent));

  // Crash/fault sites actually hit, in schedule order: who died, roughly
  // where in the run, and whether mid-broadcast (suppressed sends).
  for (size_t i = 0; i < executed.actions.size(); ++i) {
    const auto& action = executed.actions[i];
    if (!action.crash) continue;
    put_u32(bytes, static_cast<uint32_t>(action.proc));
    put_u8(bytes, log2_bucket(static_cast<int64_t>(i) + 1));
    put_u8(bytes, action.suppress_sends_to.empty() ? 0 : 1);
  }

  bytes[0] = 0xa5;
  const uint64_t hi = crc32c(bytes);
  bytes[0] = 0x5a;
  const uint64_t lo = crc32c(bytes);
  return (hi << 32) | lo;
}

// --- Corpus ----------------------------------------------------------------

bool Corpus::add(uint64_t fingerprint, const CellConfig& config,
                 const sim::RecordedSchedule& schedule) {
  const auto it = std::lower_bound(seen_.begin(), seen_.end(), fingerprint);
  if (it != seen_.end() && *it == fingerprint) return false;
  seen_.insert(it, fingerprint);
  if (entries_.size() < max_entries_) {
    entries_.push_back(CorpusEntry{fingerprint, config, schedule});
  }
  return true;
}

bool Corpus::contains(uint64_t fingerprint) const {
  return std::binary_search(seen_.begin(), seen_.end(), fingerprint);
}

namespace {

std::string fingerprint_hex(uint64_t fingerprint) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << fingerprint;
  return os.str();
}

}  // namespace

std::vector<std::string> save_corpus(const std::string& root, const Corpus& corpus) {
  std::vector<std::string> dirs;
  dirs.reserve(corpus.entries().size());
  for (size_t i = 0; i < corpus.entries().size(); ++i) {
    const auto& entry = corpus.entries()[i];
    Artifact artifact;
    artifact.config = entry.config;
    artifact.violation = "none — coverage corpus entry";
    artifact.schedule = entry.schedule;
    std::ostringstream name;
    name << "cov-";
    name.width(4);
    name.fill('0');
    name << i << "-" << fingerprint_hex(entry.fingerprint);
    const auto dir = write_artifact(root, artifact, name.str());
    std::ofstream fp(dir + "/fingerprint.txt", std::ios::binary | std::ios::trunc);
    RCOMMIT_CHECK_MSG(fp.good(), "cannot write " << dir << "/fingerprint.txt");
    fp << fingerprint_hex(entry.fingerprint) << "\n";
    dirs.push_back(dir);
  }
  return dirs;
}

std::vector<CorpusEntry> load_corpus(const std::string& root) {
  std::vector<std::string> dirs;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.is_directory()) dirs.push_back(entry.path().string());
  }
  std::sort(dirs.begin(), dirs.end());  // directory order is fs-dependent

  std::vector<CorpusEntry> entries;
  entries.reserve(dirs.size());
  for (const auto& dir : dirs) {
    const auto artifact = load_artifact(dir);
    CorpusEntry entry;
    entry.config = artifact.config;
    entry.schedule = artifact.schedule;
    if (std::ifstream fp(dir + "/fingerprint.txt"); fp.good()) {
      std::string hex;
      fp >> hex;
      entry.fingerprint = std::stoull(hex, nullptr, 16);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

// --- Mutation --------------------------------------------------------------

sim::RecordedSchedule mutate_schedule(const sim::RecordedSchedule& base, int32_t n,
                                      int max_crashes, RandomTape& tape) {
  const size_t size = base.actions.size();
  if (size == 0 || n <= 0) return base;

  // A chunk is a small contiguous window; small edits preserve most of the
  // base schedule's structure, which is what makes corpus mutation walk
  // outward from known-novel behavior instead of jumping randomly.
  const auto chunk_of = [&](size_t* begin, size_t* end) {
    *begin = static_cast<size_t>(tape.next_below(size));
    const size_t len =
        1 + static_cast<size_t>(tape.next_below(std::max<size_t>(size / 4, 1)));
    *end = std::min(*begin + len, size);
  };

  switch (tape.next_below(7)) {
    case 0: {  // truncate: keep a nonempty prefix
      return schedule_prefix(base, 1 + static_cast<size_t>(tape.next_below(size)));
    }
    case 1: {  // drop a chunk
      size_t begin = 0;
      size_t end = 0;
      chunk_of(&begin, &end);
      return schedule_without_range(base, begin, end);
    }
    case 2: {  // strip a chunk's deliveries
      size_t begin = 0;
      size_t end = 0;
      chunk_of(&begin, &end);
      return schedule_without_deliveries(base, begin, end);
    }
    case 3: {  // eliminate one processor's actions
      return schedule_without_proc(
          base, static_cast<ProcId>(tape.next_below(static_cast<uint64_t>(n))));
    }
    case 4: {  // swap two adjacent actions
      sim::RecordedSchedule out = base;
      if (size >= 2) {
        const size_t i = static_cast<size_t>(tape.next_below(size - 1));
        std::swap(out.actions[i], out.actions[i + 1]);
      }
      return out;
    }
    case 5: {  // duplicate a chunk in place
      size_t begin = 0;
      size_t end = 0;
      chunk_of(&begin, &end);
      sim::RecordedSchedule out;
      out.actions.reserve(size + (end - begin));
      out.actions.assign(base.actions.begin(),
                         base.actions.begin() + static_cast<ptrdiff_t>(end));
      out.actions.insert(out.actions.end(),
                         base.actions.begin() + static_cast<ptrdiff_t>(begin),
                         base.actions.begin() + static_cast<ptrdiff_t>(end));
      out.actions.insert(out.actions.end(),
                         base.actions.begin() + static_cast<ptrdiff_t>(end),
                         base.actions.end());
      return out;
    }
    default: {  // inject a crash (respecting the fault budget t)
      int crashes = 0;
      for (const auto& action : base.actions) crashes += action.crash ? 1 : 0;
      if (crashes >= max_crashes) {
        // Budget spent: degrade to truncation so the draw is never wasted.
        return schedule_prefix(base, 1 + static_cast<size_t>(tape.next_below(size)));
      }
      sim::Action crash;
      crash.proc = static_cast<ProcId>(tape.next_below(static_cast<uint64_t>(n)));
      crash.crash = true;
      if (tape.flip() == 1) {
        // Mid-broadcast: the victim executes its step but a random subset of
        // its sends is suppressed (the paper's hardest crash shape).
        for (ProcId p = 0; p < n; ++p) {
          if (tape.flip() == 1) crash.suppress_sends_to.push_back(p);
        }
      }
      sim::RecordedSchedule out = base;
      out.actions.insert(
          out.actions.begin() + static_cast<ptrdiff_t>(tape.next_below(size + 1)),
          std::move(crash));
      return out;
    }
  }
}

TolerantReplayAdversary::TolerantReplayAdversary(sim::RecordedSchedule schedule)
    : schedule_(std::move(schedule)) {}

void TolerantReplayAdversary::next(const sim::PatternView& view, sim::Action& action) {
  const int32_t n = view.n();
  while (position_ < schedule_.actions.size()) {
    const sim::Action& want = schedule_.actions[position_++];
    if (want.proc < 0 || want.proc >= n) continue;
    if (!view.schedulable(want.proc)) continue;  // skip: crashed/halted since
    action.proc = want.proc;
    for (const MsgId id : want.deliver) {
      // Keep only ids actually pending for the processor (mutation edits
      // displace message ids freely), once each.
      const auto& pending = view.pending(want.proc);
      const bool is_pending =
          std::any_of(pending.begin(), pending.end(),
                      [id](const sim::PendingInfo& m) { return m.id == id; });
      const bool already =
          std::find(action.deliver.begin(), action.deliver.end(), id) !=
          action.deliver.end();
      if (is_pending && !already) action.deliver.push_back(id);
    }
    action.crash = want.crash;
    if (want.crash) {
      for (const ProcId p : want.suppress_sends_to) {
        if (p >= 0 && p < n) action.suppress_sends_to.push_back(p);
      }
    }
    return;
  }
  // Schedule exhausted: drive the run to completion with a deterministic
  // fair fallback — round-robin over schedulable processors, delivering
  // everything pending. The simulator guarantees a schedulable processor
  // exists whenever next() is called.
  for (int32_t probes = 0; probes < n; ++probes) {
    const ProcId p = fallback_next_;
    fallback_next_ = (fallback_next_ + 1) % n;
    if (!view.schedulable(p)) continue;
    action.proc = p;
    for (const auto& m : view.pending(p)) action.deliver.push_back(m.id);
    return;
  }
  RCOMMIT_CHECK_MSG(false, "tolerant replay: no schedulable processor");
}

// --- Search ----------------------------------------------------------------

namespace {

/// Everything one chain produces; merged in chain order by run_search.
struct ChainResult {
  Corpus corpus{0};
  std::vector<CellOutcome> violating;  ///< executed schedules that broke a gate
  int64_t runs = 0;
  int64_t events = 0;
};

/// Fingerprints one finished run and folds it into the chain. Violating runs
/// are collected for the shrink/artifact flow instead of the corpus (corpus
/// entries double as clean replay regressions).
void absorb_run(ChainResult& chain, const CellConfig& cell,
                const CellOutcome& outcome, const sim::RunResult& result) {
  ++chain.runs;
  chain.events += result.events;
  if (outcome.violation) {
    chain.violating.push_back(outcome);
    return;
  }
  const auto fp = run_fingerprint(cell, result, outcome.schedule, outcome.stages);
  chain.corpus.add(fp, cell, outcome.schedule);
}

ChainResult run_chain(const SearchOptions& options, int chain_index) {
  ChainResult chain;
  chain.corpus = Corpus(options.corpus_capacity);
  sim::BatchRunner runner;
  const uint64_t chain_seed = mix(options.cell.seed, static_cast<uint64_t>(chain_index));
  RandomTape tape(mix(chain_seed, 0x636f76ULL));  // "cov": the mutation tape
  const CellRunOptions run_options{.measure = false, .record_schedule = true};

  // Phase A — seeding: the cell's own adversary kind under derived seeds.
  for (int r = 0; r < options.seed_runs; ++r) {
    CellConfig cell = options.cell;
    cell.seed = mix(chain_seed, 1 + static_cast<uint64_t>(r));
    sim::RunResult result;
    auto opts = run_options;
    opts.result_out = &result;
    const auto outcome = run_cell(cell, opts, runner);
    absorb_run(chain, cell, outcome, result);
  }

  // Phase B — mutation: derive schedules from novelty-producing runs and
  // execute them tolerantly against the base run's exact cell (same seed ⇒
  // same votes and tapes, so only the schedule varies).
  for (int r = 0; r < options.mutation_runs; ++r) {
    sim::RunResult result;
    auto opts = run_options;
    opts.result_out = &result;
    if (chain.corpus.entries().empty()) {
      // Nothing to mutate from (tiny seed phase): keep seeding.
      CellConfig cell = options.cell;
      cell.seed = mix(chain_seed, 0x10000 + static_cast<uint64_t>(r));
      const auto outcome = run_cell(cell, opts, runner);
      absorb_run(chain, cell, outcome, result);
      continue;
    }
    const auto& base = chain.corpus.entries()[static_cast<size_t>(
        tape.next_below(chain.corpus.entries().size()))];
    auto mutant = mutate_schedule(base.schedule, base.config.n, base.config.t, tape);
    const auto outcome = run_cell_with_adversary(
        base.config, std::make_unique<TolerantReplayAdversary>(std::move(mutant)),
        opts, runner);
    absorb_run(chain, base.config, outcome, result);
  }
  return chain;
}

}  // namespace

SearchSummary run_search(const SearchOptions& options) {
  RCOMMIT_CHECK(options.chains >= 1);
  const auto started = std::chrono::steady_clock::now();

  std::vector<ChainResult> chains(static_cast<size_t>(options.chains));
  WorkStealingPool pool(options.threads);
  pool.run(options.chains, [&](int64_t i) {
    chains[static_cast<size_t>(i)] = run_chain(options, static_cast<int>(i));
  });

  // Ordered merge: chain 0's discoveries land first, so the summary is a
  // pure function of the options no matter how chains raced above.
  SearchSummary summary;
  summary.corpus = Corpus(options.corpus_capacity);
  std::vector<uint64_t> all_seen;
  for (auto& chain : chains) {
    summary.runs_executed += chain.runs;
    summary.events_executed += chain.events;
    for (const auto& entry : chain.corpus.entries()) {
      summary.corpus.add(entry.fingerprint, entry.config, entry.schedule);
    }
    // Novelty across chains counts every distinct fingerprint observed,
    // stored or not (a chain may exceed its storage cap).
    all_seen.insert(all_seen.end(), chain.corpus.seen().begin(),
                    chain.corpus.seen().end());
  }
  std::sort(all_seen.begin(), all_seen.end());
  all_seen.erase(std::unique(all_seen.begin(), all_seen.end()), all_seen.end());
  summary.novel_fingerprints = all_seen.size();

  // Violations: shrink and archive serially, in chain order, on one warm
  // replay engine — deterministic regardless of the thread count above.
  sim::BatchRunner shrink_runner;
  for (const auto& chain : chains) {
    for (const auto& outcome : chain.violating) {
      ++summary.violations;
      ViolationReport report;
      report.config = outcome.config;
      report.detail = outcome.violation_detail;
      report.original_actions = outcome.schedule.actions.size();

      sim::RecordedSchedule shrunk = outcome.schedule;
      if (options.shrink && !outcome.schedule.actions.empty()) {
        shrunk = shrink_schedule(
            outcome.schedule,
            [&](const sim::RecordedSchedule& candidate) {
              return replay_still_violates(outcome.config, candidate, shrink_runner)
                         ? CandidateOutcome::kViolates
                         : CandidateOutcome::kNoViolation;
            },
            {.max_evals = options.shrink_max_evals});
      }
      report.shrunk_actions = shrunk.actions.size();
      if (!options.artifacts_dir.empty()) {
        Artifact artifact;
        artifact.config = outcome.config;
        artifact.violation = outcome.violation_detail;
        artifact.schedule = shrunk;
        artifact.original_schedule = outcome.schedule;
        report.artifact_path = write_artifact(options.artifacts_dir, artifact);
      }
      summary.violation_reports.push_back(std::move(report));
    }
  }

  summary.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return summary;
}

std::string SearchSummary::json(const SearchOptions& options) const {
  json::JsonWriter json;
  json.begin_object();
  json.key("search");
  json.begin_object();
  json.key("protocol").value(to_string(options.cell.protocol));
  json.key("adversary").value(to_string(options.cell.adversary));
  json.key("n").value(static_cast<int64_t>(options.cell.n));
  json.key("k").value(static_cast<int64_t>(options.cell.k));
  json.key("base_seed").value(options.cell.seed);
  json.key("chains").value(static_cast<int64_t>(options.chains));
  json.key("seed_runs").value(static_cast<int64_t>(options.seed_runs));
  json.key("mutation_runs").value(static_cast<int64_t>(options.mutation_runs));
  json.end_object();
  json.key("runs_executed").value(runs_executed);
  json.key("events_executed").value(events_executed);
  json.key("novel_fingerprints").value(static_cast<int64_t>(novel_fingerprints));
  json.key("corpus_entries").value(static_cast<int64_t>(corpus.entries().size()));
  json.key("violations").value(violations);
  json.key("violation_reports");
  json.begin_array();
  for (const auto& report : violation_reports) {
    json.begin_object();
    json.key("cell").value(report.config.id());
    json.key("detail").value(report.detail);
    json.key("original_actions").value(static_cast<int64_t>(report.original_actions));
    json.key("shrunk_actions").value(static_cast<int64_t>(report.shrunk_actions));
    json.key("artifact").value(report.artifact_path);
    json.end_object();
  }
  json.end_array();
  json.key("perf");
  json.begin_object();
  json.key("elapsed_seconds").value(elapsed_seconds);
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace rcommit::swarm
