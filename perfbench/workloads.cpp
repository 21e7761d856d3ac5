#include "workloads.h"

#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "exp/ab.h"
#include "fleet/arrivals.h"
#include "fleet/catalog.h"
#include "fleet/checkpoint.h"
#include "fleet/rng.h"
#include "net/trace_gen.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace perfbench {
namespace {

namespace exp = vbr::exp;
namespace video = vbr::video;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// FNV-1a 64 over a byte stream, rendered as "<hex>:<bytes>" ("" if empty).
class Fnv1a {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    n_ += bytes.size();
  }
  [[nodiscard]] std::string str() const {
    if (n_ == 0) {
      return "";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%016llx:%llu",
                  static_cast<unsigned long long>(h_),
                  static_cast<unsigned long long>(n_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
  std::uint64_t n_ = 0;
};

std::string digest(std::string_view bytes) {
  Fnv1a f;
  f.add(bytes);
  return f.str();
}

std::string digest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  Fnv1a f;
  std::vector<char> buf(1 << 20);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
    f.add({buf.data(), static_cast<std::size_t>(in.gcount())});
  }
  return f.str();
}

/// A workload's inputs, ready for run_fleet (spec.traces still unbound).
struct Setup {
  std::vector<net::Trace> traces;
  fleet::FleetSpec spec;
  bool ab = false;         ///< Analyze as an A/B experiment.
  bool telemetry = false;  ///< Collect JSONL telemetry and metrics.
  double tracegen_s = 0.0;
};

fleet::FleetClientClass make_class(const std::string& scheme,
                                   video::QualityMetric metric,
                                   Probes* probes) {
  fleet::FleetClientClass cls;
  cls.label = scheme;
  cls.make_scheme = bench::scheme_factory(scheme, metric);
  // The default estimator, named explicitly rather than left empty: the
  // checkpoint fingerprint records whether a factory is set, and the traced
  // run must set one to decorate it.
  cls.make_estimator = sim::default_estimator_factory();
  if (probes != nullptr) {
    cls.make_scheme = probes->wrap(std::move(cls.make_scheme));
    cls.make_estimator = probes->wrap(std::move(cls.make_estimator));
  }
  return cls;
}

Setup prepare(Workload w, const Seeds& seeds, unsigned threads,
              Probes* probes, const std::string& checkpoint_path) {
  Setup s;
  fleet::FleetSpec& spec = s.spec;
  spec.seed = seeds.fleet;
  spec.catalog.seed = seeds.catalog;
  spec.arrivals.seed = seeds.arrivals;
  spec.threads = threads;
  // vbrsim's default trace count; LTE traces except on the FCC workload.
  const Clock::time_point tracegen_start = Clock::now();
  s.traces = w == Workload::kTelemetryCkpt
                 ? net::make_fcc_trace_set(50, seeds.traces)
                 : net::make_lte_trace_set(50, seeds.traces);
  s.tracegen_s = seconds_between(tracegen_start, Clock::now());
  switch (w) {
    case Workload::kBurstUncoupled:
      // EXPERIMENTS.md's 100k-concurrency recipe at 3x the sessions, with
      // arrivals compressed further (all within 3 ms) so that every session
      // is in flight at once on every seed: at the recipe's 1e6/s a session
      // on a fast trace finishes its 4 chunks before the last one arrives,
      // and the in-flight peak, memory and time then swing with the traces.
      spec.catalog.num_titles = 4;
      spec.catalog.title_duration_s = 8.0;
      spec.arrivals.rate_per_s = 1e8;
      spec.arrivals.horizon_s = 30.0;
      spec.arrivals.max_sessions = 300000;
      spec.use_cache = false;
      spec.watch.full_watch_prob = 1.0;
      spec.engine = fleet::FleetEngine::kEvent;
      spec.stream_aggregation = true;
      spec.classes.push_back(make_class("BBA-1", spec.metric, probes));
      break;
    case Workload::kDayAbCdn:
      spec.catalog.num_titles = 64;
      spec.catalog.title_duration_s = 300.0;
      // Poisson at 0.5/s over 10000 s expects 5000 arrivals; the cap makes
      // it exactly 4000 on every seed.
      spec.arrivals.rate_per_s = 0.5;
      spec.arrivals.horizon_s = 10000.0;
      spec.arrivals.max_sessions = 4000;
      spec.cache.capacity_bits = 2000.0 * 8e6;
      spec.cdn.enabled = true;
      spec.cdn.seed = seeds.cdn;
      spec.experiment.seed = seeds.experiment;
      for (const char* arm : {"CAVA", "MPC", "BOLA-E (peak)"}) {
        spec.experiment.arms.push_back(make_class(arm, spec.metric, probes));
      }
      s.ab = true;
      break;
    case Workload::kTelemetryCkpt: {
      spec.metric = video::QualityMetric::kVmafTv;
      // 90-s titles keep the final checkpoint near 50 MB on every seed. Its
      // serialization buffer grows by doubling, so a size that straddles
      // 64 MiB across seeds would make peak memory jump with the seed.
      spec.catalog.title_duration_s = 90.0;
      spec.arrivals.rate_per_s = 10.0;
      spec.arrivals.horizon_s = 1000.0;
      spec.arrivals.max_sessions = 2000;
      spec.cache.capacity_bits = 1000.0 * 8e6;
      net::FaultConfig fault;
      fault.connect_failure_prob = 0.02 / 3.0;
      fault.mid_drop_prob = 0.02 / 3.0;
      fault.timeout_prob = 0.02 / 3.0;
      fault.seed = seeds.faults;
      for (const char* scheme : {"CAVA", "BOLA-E (peak)"}) {
        fleet::FleetClientClass cls = make_class(scheme, spec.metric, probes);
        cls.fault = fault;
        spec.classes.push_back(std::move(cls));
      }
      spec.checkpoint_path = checkpoint_path;
      spec.checkpoint_every = 250;
      s.telemetry = true;
      break;
    }
  }
  return s;
}

/// Chunk decisions of a finished run: the event engine counts them as
/// events; the stepper resolves exactly one chunk per decision. A traced
/// iteration cross-checks this against the decorated decide() count.
std::uint64_t decision_count(const fleet::FleetSpec& spec,
                             const fleet::FleetResult& r) {
  if (spec.engine == fleet::FleetEngine::kEvent) {
    return r.engine_stats.events_processed;
  }
  std::uint64_t n = 0;
  for (const fleet::FleetSessionRecord& rec : r.sessions) {
    n += rec.chunks;
  }
  return n;
}

/// Removes an iteration's files on every exit path, and any stale copies
/// up front.
class ScratchFiles {
 public:
  explicit ScratchFiles(std::vector<std::string> paths)
      : paths_(std::move(paths)) {
    remove_all();
  }
  ~ScratchFiles() { remove_all(); }
  ScratchFiles(const ScratchFiles&) = delete;
  ScratchFiles& operator=(const ScratchFiles&) = delete;

 private:
  void remove_all() const {
    for (const std::string& p : paths_) {
      std::error_code ignored;
      std::filesystem::remove(p, ignored);
    }
  }
  std::vector<std::string> paths_;
};

template <typename F>
double timed(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return seconds_between(start, Clock::now());
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "burst-uncoupled") return Workload::kBurstUncoupled;
  if (name == "day-ab-cdn") return Workload::kDayAbCdn;
  if (name == "telemetry-ckpt") return Workload::kTelemetryCkpt;
  return std::nullopt;
}

Seeds derive_seeds(std::uint64_t seed) {
  constexpr std::uint64_t kSalt = 0x70657266626e6368ull;
  const auto child = [&](std::uint64_t i) {
    return fleet::detail::derive_seed(seed, i, kSalt);
  };
  return {child(0), child(1), child(2), child(3), child(4), child(5),
          child(6)};
}

Iteration run_iteration(Workload w, std::uint64_t seed,
                        const RunOptions& opts) {
  const Seeds seeds = derive_seeds(seed);
  // Files of the write-path workload, private to this process.
  const std::string files =
      opts.work_dir + "/telemetry-ckpt." + std::to_string(::getpid());
  const bool writes_files = w == Workload::kTelemetryCkpt;
  const std::string checkpoint_path = writes_files ? files + ".ckpt" : "";
  const std::string telemetry_path = files + ".jsonl";
  const std::string resaved_path = files + ".resave.ckpt";
  const ScratchFiles scratch(
      writes_files ? std::vector<std::string>{checkpoint_path,
                                              checkpoint_path + ".tmp",
                                              telemetry_path, resaved_path,
                                              resaved_path + ".tmp"}
                   : std::vector<std::string>{});

  Iteration it;
  std::optional<obs::JsonlTraceSink> jsonl;
  std::optional<TimedSink> timed_sink;
  obs::MetricsRegistry registry;
  std::ostringstream report;
  std::ostringstream ab_report;
  std::ostringstream metrics;

  const Clock::time_point start = Clock::now();
  Setup s = prepare(w, seeds, opts.threads, opts.probes, checkpoint_path);
  s.spec.traces = s.traces;
  if (s.telemetry) {
    jsonl.emplace(telemetry_path);
    s.spec.trace = &*jsonl;
    if (opts.probes != nullptr) {
      s.spec.trace = &timed_sink.emplace(*jsonl);
    }
    s.spec.metrics = &registry;
  }
  const Clock::time_point run_start = Clock::now();
  const double cpu_start = process_cpu_s();
  const fleet::FleetResult r = fleet::run_fleet(s.spec);
  it.run_cpu_s = process_cpu_s() - cpu_start;
  it.run_s = seconds_between(run_start, Clock::now());
  if (s.ab) {
    exp::AbReport ab;
    it.analyze_s = timed([&] { ab = exp::analyze_ab(r); });
    ab.write_json(ab_report);
  }
  it.report_write_s = timed([&] { r.write_json(report); });
  if (s.telemetry) {
    it.metrics_write_s = timed([&] { registry.write_json(metrics); });
    s.spec.trace->flush();
  }
  it.wall_s = seconds_between(start, Clock::now());
  it.setup_s = seconds_between(start, run_start);

  const double trace_busy_s = timed_sink ? timed_sink->busy_s() : 0.0;
  if (jsonl) {
    it.trace_events = jsonl->lines_written();
    timed_sink.reset();
    jsonl.reset();  // closes the file
    it.trace_bytes = std::filesystem::file_size(telemetry_path);
    it.digests.telemetry = digest_file(telemetry_path);
    it.digests.metrics = digest(registry.deterministic_fingerprint());
  }
  it.sessions = r.total_sessions;
  it.decisions = decision_count(s.spec, r);
  it.engine = r.engine_stats;
  it.cache_hit_ratio = r.cache.hit_ratio();
  it.upstream_fetch_ratio = r.upstream_fetch_ratio;
  it.report_bytes = report.tellp();
  it.digests.report = digest(report.str());
  it.digests.ab_report = digest(ab_report.str());
  char stats[160];
  std::snprintf(stats, sizeof(stats),
                "sessions=%llu decisions=%llu hit=%.17g upstream=%.17g",
                static_cast<unsigned long long>(it.sessions),
                static_cast<unsigned long long>(it.decisions),
                it.cache_hit_ratio, it.upstream_fetch_ratio);
  it.digests.stats = stats;

  if (opts.probes != nullptr) {
    TracedLayers t;
    t.layers = opts.probes->totals();
    if (t.layers.decide_calls != it.decisions) {
      throw std::runtime_error(
          "decision count mismatch: decide() ran " +
          std::to_string(t.layers.decide_calls) + " times, result says " +
          std::to_string(it.decisions));
    }
    t.trace_busy_s = trace_busy_s;
    t.tracegen_s = s.tracegen_s;
    t.catalog_s = timed([&] { const fleet::Catalog c(s.spec.catalog); });
    t.arrivals_s = timed([&] {
      const std::vector<double> a = fleet::generate_arrivals(s.spec.arrivals);
    });
    if (!checkpoint_path.empty()) {
      t.checkpoint_bytes = std::filesystem::file_size(checkpoint_path);
      fleet::FleetCheckpoint ckpt;
      t.checkpoint_load_s = timed(
          [&] { ckpt = fleet::FleetCheckpoint::load(checkpoint_path); });
      t.checkpoint_save_s = timed([&] { ckpt.save(resaved_path); });
    }
    it.traced = t;
  }
  return it;
}

double time_setup(Workload w, std::uint64_t seed, unsigned threads) {
  const Clock::time_point start = Clock::now();
  Setup s = prepare(w, derive_seeds(seed), threads, nullptr, "");
  s.spec.traces = s.traces;
  return seconds_between(start, Clock::now());
}

}  // namespace perfbench
