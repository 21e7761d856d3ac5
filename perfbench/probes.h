// Layer probes for the traced benchmark run.
//
// Every probe sits OUTSIDE the library: decorators around the AbrScheme and
// BandwidthEstimator instances that run_fleet builds through the public
// factories, and a wrapper around the telemetry sink the benchmark owns.
// Nothing inside src/ is instrumented. A probe must be transparent: it
// forwards every call unchanged (name(), reset(), annotate_event included),
// so a traced run produces the same output bytes as an untraced one. The
// benchmark checks that on every traced run, and the self-test proves the
// check catches a decorator that is not transparent.
//
// run_fleet calls schemes and estimators from its worker threads, and the
// event engine may step one session on different workers over time, so the
// decorators never cache per-thread state: each call adds into the calling
// thread's LayerTotals slot, and the slots are merged after run_fleet
// returns (its workers have joined by then).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "abr/scheme.h"
#include "net/bandwidth_estimator.h"
#include "obs/trace_sink.h"
#include "sim/experiment.h"

namespace perfbench {

namespace abr = vbr::abr;
namespace net = vbr::net;
namespace obs = vbr::obs;
namespace sim = vbr::sim;

/// Log-linear histogram of nanosecond durations: 16 sub-buckets per power
/// of two, so a quantile is exact to within 1/16 of its value.
class NsHistogram {
 public:
  void record(std::uint64_t ns);
  void merge(const NsHistogram& other);
  /// Midpoint of the bucket holding the q-quantile, in ns; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSubBits = 4;
  std::array<std::uint64_t, 64 << kSubBits> counts_{};
  std::uint64_t count_ = 0;
};

/// Busy time and call counts one thread spent inside the decorated layers.
struct LayerTotals {
  std::uint64_t decide_calls = 0;
  double decide_s = 0.0;
  NsHistogram decide_ns;
  double feedback_s = 0.0;  ///< AbrScheme::on_chunk_downloaded.
  std::uint64_t estimate_calls = 0;
  double estimate_s = 0.0;  ///< estimate_bps plus on_chunk_downloaded.

  void merge(const LayerTotals& other);
};

/// Owns the per-thread accumulators of one traced iteration and wraps the
/// factories a FleetSpec hands to run_fleet. Must outlive that call.
class Probes {
 public:
  Probes();
  virtual ~Probes() = default;
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;
  Probes(Probes&&) = delete;
  Probes& operator=(Probes&&) = delete;

  [[nodiscard]] sim::SchemeFactory wrap(sim::SchemeFactory inner);
  [[nodiscard]] sim::EstimatorFactory wrap(sim::EstimatorFactory inner);

  /// The calling thread's accumulator (registered on first use).
  [[nodiscard]] LayerTotals& local();
  /// All threads' accumulators merged. Call only once run_fleet returned.
  [[nodiscard]] LayerTotals totals() const;

 protected:
  /// Builds the decorator around one scheme instance. The self-test
  /// overrides it to plant a decorator that is not transparent.
  [[nodiscard]] virtual std::unique_ptr<abr::AbrScheme> decorate(
      std::unique_ptr<abr::AbrScheme> inner);

 private:
  std::uint64_t generation_;  ///< Unique per instance; keys the TLS cache.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<LayerTotals>> slots_;  ///< Guarded by mu_.
};

/// Times decide() and on_chunk_downloaded(); forwards everything else.
class TimedScheme : public abr::AbrScheme {
 public:
  TimedScheme(std::unique_ptr<abr::AbrScheme> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  [[nodiscard]] abr::Decision decide(const abr::StreamContext& ctx) override;
  void on_chunk_downloaded(const abr::StreamContext& ctx, std::size_t track,
                           double download_s) override;
  void reset() override { inner_->reset(); }
  void annotate_event(obs::DecisionEvent& event) const override {
    inner_->annotate_event(event);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<abr::AbrScheme> inner_;
  Probes& probes_;
};

/// Times estimate_bps() and on_chunk_downloaded(); forwards everything else.
class TimedEstimator final : public net::BandwidthEstimator {
 public:
  TimedEstimator(std::unique_ptr<net::BandwidthEstimator> inner,
                 Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  void on_chunk_downloaded(double bits, double duration_s,
                           double now_s) override;
  [[nodiscard]] double estimate_bps(double now_s) const override;
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<net::BandwidthEstimator> inner_;
  Probes& probes_;
};

/// Times every event run_fleet hands to the wrapped sink.
/// run_fleet folds telemetry serially, so plain members suffice.
class TimedSink final : public obs::TraceSink {
 public:
  explicit TimedSink(obs::TraceSink& inner) : inner_(inner) {}

  void on_decision(const obs::DecisionEvent& event) override;
  void flush() override { inner_.flush(); }

  [[nodiscard]] double busy_s() const { return busy_s_; }

 private:
  obs::TraceSink& inner_;
  double busy_s_ = 0.0;
};

}  // namespace perfbench
