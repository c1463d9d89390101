#include "swarm/swarm.h"

#include <chrono>
#include <optional>

#include "common/check.h"
#include "common/json.h"
#include "swarm/artifacts.h"
#include "swarm/pool.h"
#include "swarm/shrink.h"

namespace rcommit::swarm {

namespace {

void emit_samples(json::JsonWriter& json, const char* name, const Samples& samples) {
  json.key(name);
  json.begin_object();
  json.key("count").value(samples.count());
  json.key("mean").value(samples.mean());
  json.key("p99").value(samples.percentile(0.99));
  json.key("max").value(samples.max());
  json.end_object();
}

void emit_matrix(json::JsonWriter& json, const MatrixSpec& spec) {
  json.key("matrix");
  json.begin_object();
  json.key("protocols");
  json.begin_array();
  for (auto p : spec.protocols) json.value(to_string(p));
  json.end_array();
  json.key("adversaries");
  json.begin_array();
  for (auto a : spec.adversaries) json.value(to_string(a));
  json.end_array();
  json.key("ns");
  json.begin_array();
  for (auto n : spec.ns) json.value(static_cast<int64_t>(n));
  json.end_array();
  json.key("seeds_per_cell").value(static_cast<int64_t>(spec.seeds_per_cell));
  json.key("base_seed").value(spec.base_seed);
  json.key("k").value(static_cast<int64_t>(spec.k));
  json.key("max_events").value(spec.max_events);
  json.end_object();
}

void emit_aggregate_body(json::JsonWriter& json, const SwarmSummary& summary,
                         const MatrixSpec& spec) {
  emit_matrix(json, spec);
  json.key("cells_total").value(summary.cells_total);
  json.key("runs_executed").value(summary.runs_executed);
  json.key("runs_skipped").value(summary.runs_skipped);
  json.key("violations").value(summary.violations);
  json.key("expected_divergence").value(summary.expected_divergence);

  json.key("groups");
  json.begin_array();
  for (const auto& group : summary.groups) {
    json.begin_object();
    json.key("protocol").value(to_string(group.protocol));
    json.key("adversary").value(to_string(group.adversary));
    json.key("runs").value(group.runs);
    json.key("decided").value(group.decided);
    json.key("censored").value(group.censored);
    json.key("violations").value(group.violations);
    json.key("expected_divergence").value(group.expected_divergence);
    emit_samples(json, "rounds", group.rounds);
    emit_samples(json, "ticks", group.ticks);
    emit_samples(json, "stages", group.stages);
    emit_samples(json, "events", group.events);
    emit_samples(json, "messages", group.messages);
    json.end_object();
  }
  json.end_array();

  json.key("violation_reports");
  json.begin_array();
  for (const auto& report : summary.violation_reports) {
    json.begin_object();
    json.key("cell").value(report.config.id());
    json.key("detail").value(report.detail);
    json.key("original_actions").value(static_cast<int64_t>(report.original_actions));
    json.key("shrunk_actions").value(static_cast<int64_t>(report.shrunk_actions));
    json.key("artifact").value(report.artifact_path);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

std::string SwarmSummary::aggregate_json(const MatrixSpec& spec) const {
  json::JsonWriter json;
  json.begin_object();
  emit_aggregate_body(json, *this, spec);
  json.end_object();
  return json.str();
}

std::string SwarmSummary::full_json(const MatrixSpec& spec) const {
  json::JsonWriter json;
  json.begin_object();
  emit_aggregate_body(json, *this, spec);
  json.key("perf");
  json.begin_object();
  json.key("threads").value(static_cast<int64_t>(threads));
  json.key("elapsed_seconds").value(elapsed_seconds);
  json.key("runs_per_second").value(runs_per_second);
  json.end_object();
  json.end_object();
  return json.str();
}

SwarmSummary run_swarm(const SwarmOptions& options) {
  const auto cells = enumerate_cells(options.matrix);
  std::vector<CellOutcome> outcomes(cells.size());

  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (options.budget_seconds > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(options.budget_seconds));
  }

  const auto started = std::chrono::steady_clock::now();
  WorkStealingPool pool(options.threads);
  const auto executed = pool.run(
      static_cast<int64_t>(cells.size()),
      [&](int64_t i) {
        // One warm engine per worker thread: the sweep's runs (and any
        // shrink replays below) amortize their setup on it. Workers die with
        // the pool, so the engines never outlive one run_swarm call; results
        // are byte-identical to per-run construction (batch_equivalence_test).
        thread_local sim::BatchRunner batch_runner;
        auto& outcome = outcomes[static_cast<size_t>(i)];
        outcome = run_cell(cells[static_cast<size_t>(i)],
                           CellRunOptions{.measure = options.measure}, batch_runner);
        if (!outcome.violation) return;

        // Shrink and archive inside the worker: each violating cell owns a
        // distinct artifact directory, so workers never contend.
        if (options.shrink && !outcome.schedule.actions.empty()) {
          outcome.shrunk_schedule = shrink_schedule(
              outcome.schedule,
              [&](const sim::RecordedSchedule& candidate) {
                return replay_still_violates(outcome.config, candidate, batch_runner)
                           ? CandidateOutcome::kViolates
                           : CandidateOutcome::kNoViolation;
              },
              {.max_evals = options.shrink_max_evals});
        } else {
          outcome.shrunk_schedule = outcome.schedule;
        }
        if (!options.artifacts_dir.empty()) {
          Artifact artifact;
          artifact.config = outcome.config;
          artifact.violation = outcome.violation_detail;
          artifact.schedule = outcome.shrunk_schedule;
          artifact.original_schedule = outcome.schedule;
          outcome.artifact_path = write_artifact(options.artifacts_dir, artifact);
        }
      },
      deadline);
  const auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                     started)
                           .count();

  // Deterministic fold, in cell-enumeration order, over executed cells only.
  SwarmSummary summary;
  summary.cells_total = static_cast<int64_t>(cells.size());
  summary.threads = pool.threads();  // clamped, not the raw option
  summary.elapsed_seconds = elapsed;

  for (auto protocol : options.matrix.protocols) {
    for (auto adversary : options.matrix.adversaries) {
      if (!compatible(protocol, adversary)) continue;
      GroupAggregate group;
      group.protocol = protocol;
      group.adversary = adversary;
      summary.groups.push_back(std::move(group));
    }
  }
  const auto group_of = [&](const CellConfig& config) -> GroupAggregate& {
    for (auto& group : summary.groups) {
      if (group.protocol == config.protocol && group.adversary == config.adversary) {
        return group;
      }
    }
    RCOMMIT_CHECK_MSG(false, "cell without group: " << config.id());
  };

  for (size_t i = 0; i < cells.size(); ++i) {
    if (executed[i] == 0) {
      ++summary.runs_skipped;
      continue;
    }
    ++summary.runs_executed;
    const auto& outcome = outcomes[i];
    auto& group = group_of(outcome.config);
    ++group.runs;

    if (outcome.violation) {
      ++summary.violations;
      ++group.violations;
      ViolationReport report;
      report.config = outcome.config;
      report.detail = outcome.violation_detail;
      report.original_actions = outcome.schedule.actions.size();
      report.shrunk_actions = outcome.shrunk_schedule.actions.size();
      report.artifact_path = outcome.artifact_path;
      summary.violation_reports.push_back(std::move(report));
      continue;
    }
    if (outcome.expected_divergence) {
      ++summary.expected_divergence;
      ++group.expected_divergence;
    }
    if (outcome.status == sim::RunStatus::kEventLimit) ++group.censored;
    if (outcome.all_decided && !outcome.expected_divergence) {
      ++group.decided;
      // Rounds are a trace analysis; unmeasured (fast-path) runs have none.
      if (outcome.measured) group.rounds.add(static_cast<double>(outcome.rounds));
      group.ticks.add(static_cast<double>(outcome.ticks));
      group.stages.add(static_cast<double>(outcome.stages));
      group.events.add(static_cast<double>(outcome.events));
      group.messages.add(static_cast<double>(outcome.messages));
    }
  }

  summary.runs_per_second =
      elapsed > 0 ? static_cast<double>(summary.runs_executed) / elapsed : 0;
  return summary;
}

}  // namespace rcommit::swarm
