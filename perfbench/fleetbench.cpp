// fleetbench — runs one iteration of one fleet workload and prints its raw
// samples as one JSON object on stdout.
//
//   fleetbench --workload NAME --seed N [--threads T] [--trace 0|1]
//              [--work-dir DIR]
//
// An iteration goes from trace generation to the last output byte. With
// --trace 1 the iteration runs with the layer probes (probes.h). Before the
// iteration the process times the set-up stage alone a few times, so
// setup_s gets several samples per process. One process runs one iteration,
// so its peak resident memory is that of this workload alone. run.py starts
// the processes, checks their outputs and aggregates the samples.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_util.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using vbr::obs::detail::append_double;
using vbr::obs::detail::append_json_string;
using vbr::obs::detail::append_uint;

constexpr std::size_t kSetupSamples = 9;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  unsigned threads = 2;
  std::string work_dir = ".";
};

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::uint64_t out = 0;
  const auto r = std::from_chars(v.data(), v.data() + v.size(), out);
  if (r.ec != std::errc() || r.ptr != v.data() + v.size()) {
    throw std::invalid_argument(flag + " expects a whole number, got '" + v +
                                "'");
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument(flag + " needs a value");
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, v);
      have_seed = true;
    } else if (flag == "--trace") {
      a.trace = parse_uint(flag, v) != 0;
    } else if (flag == "--threads") {
      a.threads = static_cast<unsigned>(parse_uint(flag, v));
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return a;
}

void key(std::string& out, const char* name) {
  out += '"';
  out += name;
  out += "\":";
}

void field(std::string& out, const char* name, double v) {
  key(out, name);
  append_double(out, v);
  out += ',';
}

void field(std::string& out, const char* name, std::uint64_t v) {
  key(out, name);
  append_uint(out, v);
  out += ',';
}

void field(std::string& out, const char* name, const std::string& v) {
  key(out, name);
  append_json_string(out, v);
  out += ',';
}

void close_object(std::string& out) {
  if (out.back() == ',') {
    out.pop_back();
  }
  out += '}';
}

void append_iteration(std::string& out, const Iteration& it) {
  out += '{';
  field(out, "setup_s", it.setup_s);
  field(out, "run_s", it.run_s);
  field(out, "run_cpu_s", it.run_cpu_s);
  field(out, "wall_s", it.wall_s);
  field(out, "analyze_s", it.analyze_s);
  field(out, "report_write_s", it.report_write_s);
  field(out, "report_bytes", it.report_bytes);
  field(out, "metrics_write_s", it.metrics_write_s);
  field(out, "trace_events", it.trace_events);
  field(out, "trace_bytes", it.trace_bytes);
  field(out, "sessions", it.sessions);
  field(out, "decisions", it.decisions);
  field(out, "engine_events", it.engine.events_processed);
  field(out, "engine_peak_in_flight", it.engine.peak_in_flight);
  field(out, "engine_max_heap", it.engine.max_heap_size);
  field(out, "engine_peak_resident_records", it.engine.peak_resident_records);
  field(out, "cache_hit_ratio", it.cache_hit_ratio);
  field(out, "upstream_fetch_ratio", it.upstream_fetch_ratio);
  key(out, "digests");
  out += '{';
  field(out, "report", it.digests.report);
  field(out, "ab_report", it.digests.ab_report);
  field(out, "telemetry", it.digests.telemetry);
  field(out, "metrics", it.digests.metrics);
  field(out, "stats", it.digests.stats);
  close_object(out);
  out += ',';
  if (it.traced) {
    const TracedLayers& t = *it.traced;
    key(out, "traced");
    out += '{';
    field(out, "decide_calls", t.layers.decide_calls);
    field(out, "decide_s", t.layers.decide_s);
    field(out, "decide_ns_p50", t.layers.decide_ns.quantile(0.50));
    field(out, "decide_ns_p99", t.layers.decide_ns.quantile(0.99));
    field(out, "feedback_s", t.layers.feedback_s);
    field(out, "estimate_calls", t.layers.estimate_calls);
    field(out, "estimate_s", t.layers.estimate_s);
    field(out, "trace_busy_s", t.trace_busy_s);
    field(out, "tracegen_s", t.tracegen_s);
    field(out, "catalog_s", t.catalog_s);
    field(out, "arrivals_s", t.arrivals_s);
    field(out, "checkpoint_bytes", t.checkpoint_bytes);
    field(out, "checkpoint_load_s", t.checkpoint_load_s);
    field(out, "checkpoint_save_s", t.checkpoint_save_s);
    close_object(out);
    out += ',';
  }
  close_object(out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload workload{};
  try {
    args = parse_args(argc, argv);
    const std::optional<Workload> w = parse_workload(args.workload);
    if (!w) {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    workload = *w;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 2;
  }

  std::vector<double> setup_samples;
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    setup_samples.push_back(time_setup(workload, args.seed, args.threads));
  }
  std::string iteration;
  Probes probes;
  try {
    const RunOptions opts{args.threads, args.trace ? &probes : nullptr,
                          args.work_dir};
    const Iteration it = run_iteration(workload, args.seed, opts);
    setup_samples.push_back(it.setup_s);
    append_iteration(iteration, it);
  } catch (const std::exception& e) {
    iteration = "{\"error\":";
    append_json_string(iteration, e.what());
    iteration += '}';
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::string out = "{";
  field(out, "workload", args.workload);
  field(out, "seed", args.seed);
  field(out, "threads", static_cast<std::uint64_t>(args.threads));
  field(out, "cores",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  field(out, "compiler", std::string(kCompiler));
  field(out, "build_type", std::string(PERFBENCH_BUILD_TYPE));
  field(out, "peak_rss_kb", static_cast<std::uint64_t>(usage.ru_maxrss));
  key(out, "setup_samples_s");
  out += '[';
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    append_double(out, setup_samples[i]);
  }
  out += "],";
  key(out, "iteration");
  out += iteration;
  out += '}';
  std::printf("%s\n", out.c_str());
  return 0;
}
