// The fleet benchmark's workloads and one timed iteration of each.
//
// An iteration goes the way `vbrsim --fleet` goes: generate the trace set,
// build the FleetSpec and its factories, call fleet::run_fleet, then analyze
// and write every output (report, A/B report, telemetry, metrics). All
// outputs go to memory the benchmark owns, except the checkpoint file that
// run_fleet itself writes. README.md says why each workload exists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet.h"
#include "probes.h"

namespace perfbench {

namespace fleet = vbr::fleet;

enum class Workload { kBurstUncoupled, kDayAbCdn, kTelemetryCkpt };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Every input seed of a workload, derived from the one benchmark seed.
/// The library receives only the inputs these seeds generate.
struct Seeds {
  std::uint64_t fleet = 0;       ///< FleetSpec::seed (per-session draws).
  std::uint64_t catalog = 0;     ///< Title content.
  std::uint64_t arrivals = 0;    ///< Arrival times.
  std::uint64_t traces = 0;      ///< Network trace set.
  std::uint64_t experiment = 0;  ///< A/B arm assignment.
  std::uint64_t faults = 0;      ///< Injected request faults.
  std::uint64_t cdn = 0;         ///< CDN outage and shed draws.
};
[[nodiscard]] Seeds derive_seeds(std::uint64_t seed);

/// FNV-1a 64 of each output stream, as "<hex>:<bytes>". An output the
/// workload does not produce digests the empty string.
struct Digests {
  std::string report;
  std::string ab_report;
  std::string telemetry;
  std::string metrics;  ///< MetricsRegistry::deterministic_fingerprint().
  /// FleetResult fields outside the report bytes that must not move:
  /// total_sessions, cache hit ratio, upstream fetch ratio.
  std::string stats;

  friend bool operator==(const Digests&, const Digests&) = default;
};

/// Per-layer figures only a traced iteration takes.
struct TracedLayers {
  LayerTotals layers;
  double trace_busy_s = 0.0;  ///< Time inside the telemetry sink.
  // Direct, separately timed calls into the setup layers.
  double tracegen_s = 0.0;
  double catalog_s = 0.0;
  double arrivals_s = 0.0;
  // Final checkpoint file: size, and a timed load and re-save of it.
  std::uint64_t checkpoint_bytes = 0;
  double checkpoint_load_s = 0.0;
  double checkpoint_save_s = 0.0;
};

/// One iteration's host-time measurements. Simulated time never appears.
struct Iteration {
  double setup_s = 0.0;    ///< Trace generation + spec and factories.
  double run_s = 0.0;      ///< The run_fleet call.
  double run_cpu_s = 0.0;  ///< Process CPU seconds during run_fleet.
  double wall_s = 0.0;     ///< Trace generation to the last output byte.
  double analyze_s = 0.0;  ///< exp::analyze_ab (A/B workload only).
  double report_write_s = 0.0;
  std::uint64_t report_bytes = 0;
  double metrics_write_s = 0.0;  ///< MetricsRegistry::write_json.
  std::uint64_t trace_events = 0;
  std::uint64_t trace_bytes = 0;

  std::uint64_t sessions = 0;   ///< FleetResult::total_sessions.
  std::uint64_t decisions = 0;  ///< Chunk decisions (see decision_count).
  fleet::FleetEngineStats engine;
  double cache_hit_ratio = 0.0;
  double upstream_fetch_ratio = 0.0;
  Digests digests;
  std::optional<TracedLayers> traced;  ///< Set when run with probes.
};

struct RunOptions {
  unsigned threads = 2;
  /// Non-null: a traced iteration whose schemes, estimators and telemetry
  /// sink are decorated by these probes.
  Probes* probes = nullptr;
  /// Directory for the checkpoint file (telemetry-ckpt only).
  std::string work_dir = ".";
};

/// Runs one full iteration. Throws whatever the library throws, and
/// std::runtime_error when a traced iteration's decide count disagrees
/// with the decision count read from the result.
[[nodiscard]] Iteration run_iteration(Workload w, std::uint64_t seed,
                                      const RunOptions& opts);

/// Times the set-up stage alone (what Iteration::setup_s covers).
[[nodiscard]] double time_setup(Workload w, std::uint64_t seed,
                                unsigned threads);

}  // namespace perfbench
