#include "probes.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::atomic<std::uint64_t> next_generation{1};

/// The calling thread's slot in the most recent Probes it touched. Keyed by
/// generation, not address, so a Probes allocated where a dead one lived
/// never inherits its slot.
struct TlsSlot {
  std::uint64_t generation = 0;
  LayerTotals* totals = nullptr;
};
thread_local TlsSlot tls_slot;

}  // namespace

void NsHistogram::record(std::uint64_t ns) {
  std::size_t index = 0;
  if (ns < (1u << kSubBits)) {
    index = ns;
  } else {
    const int msb = std::bit_width(ns) - 1;
    const std::uint64_t sub =
        (ns >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
    index = (static_cast<std::size_t>(msb - kSubBits + 1) << kSubBits) + sub;
  }
  ++counts_[index];
  ++count_;
}

void NsHistogram::merge(const NsHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
}

double NsHistogram::quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank && counts_[i] > 0) {
      const std::size_t block = i >> kSubBits;
      const std::size_t sub = i & ((1u << kSubBits) - 1);
      if (block == 0) {
        return static_cast<double>(sub);
      }
      const double base =
          std::ldexp(1.0, static_cast<int>(block) - 1 + kSubBits);
      const double width = base / (1u << kSubBits);
      return base + (static_cast<double>(sub) + 0.5) * width;
    }
  }
  return 0.0;
}

void LayerTotals::merge(const LayerTotals& other) {
  decide_calls += other.decide_calls;
  decide_s += other.decide_s;
  decide_ns.merge(other.decide_ns);
  feedback_s += other.feedback_s;
  estimate_calls += other.estimate_calls;
  estimate_s += other.estimate_s;
}

Probes::Probes() : generation_(next_generation.fetch_add(1)) {}

LayerTotals& Probes::local() {
  if (tls_slot.generation != generation_) {
    auto slot = std::make_unique<LayerTotals>();
    LayerTotals* raw = slot.get();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::move(slot));
    }
    tls_slot = {generation_, raw};
  }
  return *tls_slot.totals;
}

LayerTotals Probes::totals() const {
  LayerTotals sum;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<LayerTotals>& slot : slots_) {
    sum.merge(*slot);
  }
  return sum;
}

sim::SchemeFactory Probes::wrap(sim::SchemeFactory inner) {
  return [this, inner = std::move(inner)] { return decorate(inner()); };
}

sim::EstimatorFactory Probes::wrap(sim::EstimatorFactory inner) {
  return [this, inner = std::move(inner)](const net::Trace& trace)
             -> std::unique_ptr<net::BandwidthEstimator> {
    return std::make_unique<TimedEstimator>(inner(trace), *this);
  };
}

std::unique_ptr<abr::AbrScheme> Probes::decorate(
    std::unique_ptr<abr::AbrScheme> inner) {
  return std::make_unique<TimedScheme>(std::move(inner), *this);
}

abr::Decision TimedScheme::decide(const abr::StreamContext& ctx) {
  const Clock::time_point start = Clock::now();
  const abr::Decision d = inner_->decide(ctx);
  const Clock::duration took = Clock::now() - start;
  LayerTotals& t = probes_.local();
  ++t.decide_calls;
  t.decide_s += std::chrono::duration<double>(took).count();
  t.decide_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(took).count()));
  return d;
}

void TimedScheme::on_chunk_downloaded(const abr::StreamContext& ctx,
                                      std::size_t track, double download_s) {
  const Clock::time_point start = Clock::now();
  inner_->on_chunk_downloaded(ctx, track, download_s);
  probes_.local().feedback_s += seconds_between(start, Clock::now());
}

void TimedEstimator::on_chunk_downloaded(double bits, double duration_s,
                                         double now_s) {
  const Clock::time_point start = Clock::now();
  inner_->on_chunk_downloaded(bits, duration_s, now_s);
  probes_.local().estimate_s += seconds_between(start, Clock::now());
}

double TimedEstimator::estimate_bps(double now_s) const {
  const Clock::time_point start = Clock::now();
  const double bps = inner_->estimate_bps(now_s);
  LayerTotals& t = probes_.local();
  ++t.estimate_calls;
  t.estimate_s += seconds_between(start, Clock::now());
  return bps;
}

void TimedSink::on_decision(const obs::DecisionEvent& event) {
  const Clock::time_point start = Clock::now();
  inner_.on_decision(event);
  busy_s_ += seconds_between(start, Clock::now());
}

}  // namespace perfbench
