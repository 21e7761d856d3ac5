// Self-test of the benchmark's own checks:
//
//   python3 perfbench/run.py --self-test
//   (or: fleetbench_selftest WORK_DIR)
//
// 1. Transparent tracing. A traced iteration must reproduce the untraced
//    iteration's output digests, and a decorator that changes name(), skips
//    reset() or skips annotate_event() must break that equality.
//    telemetry-ckpt is the workload that can show all three flaws: its
//    telemetry records the scheme name and CAVA's controller annotations,
//    and its stepper engine reuses one scheme per worker across sessions.
// 2. Seed plumbing. Every derived seed moves with the benchmark seed, and
//    no two derived seeds are equal.
// 3. NsHistogram quantiles land within one bucket (1/16) of the truth.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++failures;
  }
}

enum class Flaw { kName, kReset, kAnnotate };

class FlawedScheme final : public TimedScheme {
 public:
  FlawedScheme(std::unique_ptr<abr::AbrScheme> inner, Probes& probes,
               Flaw flaw)
      : TimedScheme(std::move(inner), probes), flaw_(flaw) {}

  void reset() override {
    if (flaw_ != Flaw::kReset) {
      TimedScheme::reset();
    }
  }
  void annotate_event(obs::DecisionEvent& event) const override {
    if (flaw_ != Flaw::kAnnotate) {
      TimedScheme::annotate_event(event);
    }
  }
  [[nodiscard]] std::string name() const override {
    return flaw_ == Flaw::kName ? TimedScheme::name() + " (traced)"
                                : TimedScheme::name();
  }

 private:
  Flaw flaw_;
};

class FlawedProbes final : public Probes {
 public:
  explicit FlawedProbes(Flaw flaw) : flaw_(flaw) {}

 protected:
  std::unique_ptr<abr::AbrScheme> decorate(
      std::unique_ptr<abr::AbrScheme> inner) override {
    return std::make_unique<FlawedScheme>(std::move(inner), *this, flaw_);
  }

 private:
  Flaw flaw_;
};

void transparency(const std::string& work_dir) {
  constexpr std::uint64_t kSeed = 3;
  const Workload w = Workload::kTelemetryCkpt;
  const RunOptions plain{2, nullptr, work_dir};
  const Digests untraced = run_iteration(w, kSeed, plain).digests;
  expect(!untraced.telemetry.empty(), "telemetry-ckpt writes telemetry");

  Probes faithful;
  RunOptions traced = plain;
  traced.probes = &faithful;
  expect(run_iteration(w, kSeed, traced).digests == untraced,
         "faithful decorators reproduce the untraced bytes");

  const struct {
    Flaw flaw;
    const char* what;
  } flaws[] = {{Flaw::kName, "name()"},
               {Flaw::kReset, "reset()"},
               {Flaw::kAnnotate, "annotate_event()"}};
  for (const auto& f : flaws) {
    FlawedProbes flawed(f.flaw);
    traced.probes = &flawed;
    expect(run_iteration(w, kSeed, traced).digests != untraced,
           std::string("a decorator that breaks ") + f.what +
               " fails the transparency check");
  }
}

void seed_plumbing() {
  const Seeds a = derive_seeds(1);
  const Seeds b = derive_seeds(2);
  const std::uint64_t as[] = {a.fleet, a.catalog, a.arrivals, a.traces,
                              a.experiment, a.faults, a.cdn};
  const std::uint64_t bs[] = {b.fleet, b.catalog, b.arrivals, b.traces,
                              b.experiment, b.faults, b.cdn};
  bool all_move = true;
  for (std::size_t i = 0; i < std::size(as); ++i) {
    all_move = all_move && as[i] != bs[i];
  }
  expect(all_move, "every derived seed changes with the benchmark seed");
  expect(std::set<std::uint64_t>(std::begin(as), std::end(as)).size() ==
             std::size(as),
         "derived seeds are pairwise distinct");
}

void histogram_quantiles() {
  NsHistogram h;
  for (std::uint64_t ns = 1; ns <= 100000; ++ns) {
    h.record(ns);
  }
  const double p50 = h.quantile(0.50);
  const double p99 = h.quantile(0.99);
  expect(std::abs(p50 - 50000.0) <= 50000.0 / 16 &&
             std::abs(p99 - 99000.0) <= 99000.0 / 16,
         "NsHistogram p50/p99 within one bucket (got " + std::to_string(p50) +
             ", " + std::to_string(p99) + ")");
  expect(NsHistogram().quantile(0.5) == 0.0, "empty NsHistogram reads 0");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : ".";
  try {
    seed_plumbing();
    histogram_quantiles();
    transparency(work_dir);
  } catch (const std::exception& e) {
    std::printf("FAIL threw: %s\n", e.what());
    ++failures;
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
