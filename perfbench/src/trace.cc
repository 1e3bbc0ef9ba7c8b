#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <string>

#include "util/str.h"

namespace perfbench {

using dupnet::net::HopClassOf;
using dupnet::metrics::kNumHopClasses;
using dupnet::net::Message;

namespace {

std::string Hex(double value) { return dupnet::util::StrFormat("%a", value); }

const char* HopClassName(int hop_class) {
  static const char* const kNames[kNumHopClasses] = {"request", "reply",
                                                     "push", "control"};
  return kNames[hop_class];
}

const char* KindName(int kind) {
  static const char* const kNames[kNumKinds] = {
      "query",       "deliver_request", "deliver_reply", "deliver_push",
      "deliver_control", "retry_timer", "other"};
  return kNames[kind];
}

/// Interquartile mean of `values` (reorders them): the mean of the middle
/// half. As robust as a median to slices hit by a burst, but it moves
/// smoothly instead of jumping when the values sit in two clusters.
double InterquartileMean(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i + cut < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

}  // namespace

std::string Digest(const dupnet::metrics::RunMetrics& m) {
  std::string out = dupnet::util::StrFormat(
      "q=%" PRIu64 " lat=%s cost=%s hit=%s stale=%s dr=%s p=%" PRIu64
      "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 " issued=%" PRIu64
      " local=%" PRIu64 " stale_n=%" PRIu64 " ls=%" PRIu64 " hist=%" PRIu64
      "/%" PRIu64,
      m.queries, Hex(m.avg_latency_hops).c_str(), Hex(m.avg_cost_hops).c_str(),
      Hex(m.local_hit_rate).c_str(), Hex(m.stale_rate).c_str(),
      Hex(m.delivery_ratio).c_str(), m.latency_p50, m.latency_p95,
      m.latency_p99, m.latency_max, m.queries_issued, m.local_hits,
      m.stale_serves, m.latency_stats.count(), m.latency_hist.count(),
      m.latency_hist.overflow_count());
  if (m.latency_stats.count() > 0) {
    out += " mean=" + Hex(m.latency_stats.Mean());
  }
  for (int c = 0; c < kNumHopClasses; ++c) {
    out += dupnet::util::StrFormat(
        " c%d=%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64,
        c, m.hops.counts[c], m.delivery.sent[c], m.delivery.delivered[c],
        m.delivery.dropped[c], m.delivery.retries[c], m.delivery.giveups[c]);
  }
  return out;
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void SpanStat::Add(uint64_t ns) {
  ++count_;
  total_ns_ += ns;
  const uint32_t clipped =
      static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
  if (sample_.size() < kSampleCap) {
    sample_.push_back(clipped);
    return;
  }
  // Reservoir sampling (Algorithm R) with a splitmix64 stream.
  state_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const uint64_t slot = z % count_;
  if (slot < kSampleCap) sample_[slot] = clipped;
}

double SpanStat::QuantileNs(double q) const {
  std::vector<double> values(sample_.begin(), sample_.end());
  return Quantile(values, q);
}

uint64_t EventLedger::CoveredNs() const {
  uint64_t total = query.total_ns() + retry_timer.total_ns() +
                   other.total_ns() + extra_covered_ns;
  for (int c = 0; c < kNumHopClasses; ++c) {
    total += deliver[c].total_ns() + handle[c].total_ns();
  }
  return total;
}

void EmitPerLayer(const LayerData& layers, Report* report) {
  const EventLedger& l = layers.ledger;
  const auto count = [&](const std::string& name, double value) {
    report->Set(name, value, "count");
  };
  report->Set("sim.event_ns", l.event.MeanNs(), "ns");
  report->Set("sim.event_p50_ns", l.event.QuantileNs(0.50), "ns");
  report->Set("sim.event_p99_ns", l.event.QuantileNs(0.99), "ns");
  report->Set("sim.query_event_ns", l.query.MeanNs(), "ns");
  for (int c = 0; c < kNumHopClasses; ++c) {
    const std::string cls = HopClassName(c);
    report->Set("net.deliver_ns." + cls, l.deliver[c].MeanNs(), "ns");
    report->Set("proto.handle_ns." + cls, l.handle[c].MeanNs(), "ns");
  }
  report->Set("net.retry_timer_ns", l.retry_timer.MeanNs(), "ns");
  report->Set("experiment.other_event_ns", l.other.MeanNs(), "ns");
  static const char* const kSchemes[3] = {"pcx", "cup", "dup"};
  for (int s = 0; s < 3; ++s) {
    report->Set(std::string("proto.") + kSchemes[s] + ".events_per_s",
                layers.scheme_events_per_s[s], "1/s");
  }

  const ProbeResults& p = layers.probes;
  report->Set("workload.zipf_sample_ns", p.zipf_sample_ns, "ns");
  report->Set("core.registry_slot_of_ns", p.registry_slot_of_ns, "ns");
  report->Set("cache.tracker_record_ns", p.tracker_record_ns, "ns");
  report->Set("net.pair_clock_advance_ns", p.pair_clock_advance_ns, "ns");
  report->Set("sim.queue_hold_ns", p.queue_hold_ns, "ns");
  count("sim.pending_max", static_cast<double>(l.pending_max));
  report->Set("net.send_deliver_ns", p.send_deliver_ns, "ns");
  report->Set("metrics.recorder_ns", p.recorder_ns, "ns");

  report->Set("net.ship_ns", layers.ship.MeanNs(), "ns");
  report->Set("net.pump_ns_per_frame", layers.pump_ns_per_frame, "ns");
  report->Set("wire.serialize_ns", layers.codec.serialize_ns, "ns");
  report->Set("wire.parse_ns", layers.codec.parse_ns, "ns");
  report->Set("wire.frame_bytes_mean", layers.frame_bytes_mean, "B");

  report->Set("topo.tree_build_s", p.tree_build_s, "s");
  report->Set("experiment.init_s", layers.init_s, "s");

  count("sim.events", static_cast<double>(layers.events));
  for (int k = 0; k < kNumKinds; ++k) {
    count(std::string("sim.events.") + KindName(k),
          static_cast<double>(l.kind_events[k]));
  }
  const auto& d = layers.delivery;
  for (int c = 0; c < kNumHopClasses; ++c) {
    const std::string cls = HopClassName(c);
    count("net.sent." + cls, static_cast<double>(d.sent[c]));
    count("net.delivered." + cls, static_cast<double>(d.delivered[c]));
    count("net.dropped." + cls, static_cast<double>(d.dropped[c]));
    count("net.retries." + cls, static_cast<double>(d.retries[c]));
    count("net.giveups." + cls, static_cast<double>(d.giveups[c]));
  }
  count("net.frames_shipped", static_cast<double>(layers.frames_shipped));
  count("net.frames_received", static_cast<double>(layers.frames_received));
  count("net.frames_rejected", static_cast<double>(layers.frames_rejected));
  count("net.frames_lost", static_cast<double>(layers.frames_lost));
  count("net.frame_latency_samples",
        static_cast<double>(layers.latency_samples));
  count("experiment.queries_issued", static_cast<double>(layers.queries_issued));
  count("experiment.queries_unserved",
        static_cast<double>(layers.queries_unserved));
  report->Set("cache.local_hit_rate",
              layers.queries_issued == 0
                  ? 0.0
                  : static_cast<double>(layers.local_hits) /
                        static_cast<double>(layers.queries_issued),
              "ratio");
  count("sim.event_slots", static_cast<double>(layers.event_slots));
  count("net.message_slots", static_cast<double>(layers.message_slots));
  count("net.pair_clock_slots", static_cast<double>(layers.pair_clock_slots));

  const double traced_ns = layers.traced_wall_s * 1e9;
  report->Set("trace.coverage",
              traced_ns > 0.0 ? static_cast<double>(l.CoveredNs()) / traced_ns
                              : 0.0,
              "ratio");
  report->Set("trace.overhead",
              layers.untraced_wall_s > 0.0
                  ? layers.traced_wall_s / layers.untraced_wall_s
                  : 0.0,
              "ratio");
}

void SliceMeter::Begin(uint64_t events, uint64_t frames) {
  if (series_->passes > 0) {
    series_->aligned &= series_->pass_samples == series_->latency_us.size();
  }
  ++series_->passes;
  sample_ = 0;
  start_ = Clock::now();
  events_ = events;
  frames_ = frames;
  latency_us_->clear();
}

void SliceMeter::Cut(uint64_t events, uint64_t frames) {
  const Clock::time_point now = Clock::now();
  const double seconds =
      std::chrono::duration<double>(now - start_).count();
  const uint64_t slice_events = events - events_;
  const uint64_t slice_frames = frames - frames_;
  series_->events += slice_events;
  series_->frames += slice_frames;
  if (seconds > 0.0 && slice_events > 0) {
    series_->event_rates.push_back(static_cast<double>(slice_events) / seconds);
  }
  std::vector<double>& lowest = series_->latency_us;
  for (double us : *latency_us_) {
    if (sample_ < lowest.size()) {
      lowest[sample_] = std::min(lowest[sample_], us);
    } else {
      lowest.push_back(us);
    }
    ++sample_;
  }
  series_->pass_samples = sample_;
  if (series_->passes == 1) series_->slice_ends.push_back(sample_);
  latency_us_->clear();
  start_ = now;
  events_ = events;
  frames_ = frames;
}

void EmitEndToEnd(EndToEnd& e2e, Report* report) {
  uint64_t events = 0;
  uint64_t frames = 0;
  double seconds = 0.0;
  uint64_t samples = 0;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> slice;
  for (SliceSeries& s : e2e.series) {
    events += s.events;
    frames += s.frames;
    seconds += static_cast<double>(s.events) / Median(s.event_rates);
    std::vector<double>& r = s.event_rates;
    report->notes.push_back(dupnet::util::StrFormat(
        "slice events/s over %zu slices: p10 %.4g, p50 %.4g, p90 %.4g",
        r.size(), Quantile(r, 0.10), Quantile(r, 0.50), Quantile(r, 0.90)));
    samples += s.latency_us.size();
    report->Check(s.aligned && s.pass_samples == s.latency_us.size(),
                  "passes stamped different numbers of transmissions");
    size_t begin = 0;
    for (size_t end : s.slice_ends) {
      if (end - begin >= SliceMeter::kMinLatencySamples) {
        slice.assign(s.latency_us.begin() + static_cast<std::ptrdiff_t>(begin),
                     s.latency_us.begin() + static_cast<std::ptrdiff_t>(end));
        p50.push_back(Quantile(slice, 0.50));
        p99.push_back(Quantile(slice, 0.99));
      }
      begin = end;
    }
  }
  report->notes.push_back(dupnet::util::StrFormat(
      "frame latency: %llu samples per pass, lowest over %d passes, "
      "percentiles from %zu slices",
      static_cast<unsigned long long>(samples),
      e2e.series.empty() ? 0 : e2e.series[0].passes, p50.size()));
  report->Check(!p50.empty(), "no slice had enough frame-latency samples");
  report->Set("events_per_s", static_cast<double>(events) / seconds, "1/s");
  report->Set("setup_s", e2e.setup_s, "s");
  report->Set("peak_bytes_per_node", e2e.peak_bytes_per_node, "B");
  report->Set("frames_per_s", static_cast<double>(frames) / seconds, "1/s");
  report->Set("frame_latency_p50_us", InterquartileMean(p50), "us");
  report->Set("frame_latency_p99_us", InterquartileMean(p99), "us");
}

EventTracer::EventTracer(dupnet::experiment::SimulationDriver* driver,
                         EventLedger* ledger, bool continuous)
    : driver_(driver), ledger_(ledger), continuous_(continuous) {}

void EventTracer::Attach() {
  reliable_ = driver_->network().faults().reliable();
  driver_->network().set_observer(this);
  driver_->engine().set_post_event_hook([this] { OnEventEnd(); });
  if (continuous_) Open(Clock::now());
}

void EventTracer::Detach() {
  driver_->network().set_observer(nullptr);
  driver_->engine().set_post_event_hook(nullptr);
  in_event_ = false;
}

void EventTracer::BeginEvent() { Open(Clock::now()); }

void EventTracer::Open(Clock::time_point now) {
  start_ = now;
  in_event_ = true;
  first_ = First::kNone;
  queries_before_ = driver_->recorder().queries_issued();
  const auto& delivery = driver_->recorder().delivery();
  retries_before_ = delivery.total_retries() + delivery.total_giveups();
  pending_before_ = driver_->engine().pending();
}

void EventTracer::OnSend(dupnet::sim::SimTime, const Message&) {
  if (in_event_ && first_ == First::kNone) first_ = First::kOther;
}

void EventTracer::OnDeliver(dupnet::sim::SimTime, const Message& message) {
  if (!in_event_ || first_ != First::kNone) return;
  first_ = First::kDeliver;
  deliver_class_ = static_cast<int>(HopClassOf(message.type));
  deliver_at_ = Clock::now();
}

void EventTracer::OnDrop(dupnet::sim::SimTime, const Message&) {
  if (in_event_ && first_ == First::kNone) first_ = First::kOther;
}

void EventTracer::OnEventEnd() {
  const Clock::time_point end = Clock::now();
  const uint64_t total = Nanos(start_, end);
  ledger_->event.Add(total);
  const size_t pending = driver_->engine().pending();
  ledger_->pending_max = std::max(ledger_->pending_max, pending);
  const auto& delivery = driver_->recorder().delivery();
  int kind;
  if (first_ == First::kDeliver) {
    kind = kKindDeliverRequest + deliver_class_;
    ledger_->deliver[deliver_class_].Add(Nanos(start_, deliver_at_));
    ledger_->handle[deliver_class_].Add(Nanos(deliver_at_, end));
  } else if (driver_->recorder().queries_issued() != queries_before_) {
    kind = kKindQuery;
    ledger_->query.Add(total);
  } else if (reliable_ &&
             (delivery.total_retries() + delivery.total_giveups() !=
                  retries_before_ ||
              (first_ == First::kNone && pending + 1 == pending_before_))) {
    kind = kKindRetryTimer;
    ledger_->retry_timer.Add(total);
  } else {
    kind = kKindOther;
    ledger_->other.Add(total);
  }
  ++ledger_->kind_events[kind];
  in_event_ = false;
  if (continuous_) Open(end);
}

void FrameLatencySampler::OnSend(dupnet::sim::SimTime, const Message& m) {
  if (m.type == dupnet::net::MessageType::kAck || sends_++ % kPeriod != 0) {
    return;
  }
  in_flight_.push_back(
      Stamp{m.type, m.from, m.to, m.hops, m.seq, m.version, ThreadCpuNs()});
}

void FrameLatencySampler::OnDeliver(dupnet::sim::SimTime, const Message& m) {
  ++delivered_;
  if (!in_flight_.empty()) Match(m, /*delivered=*/true);
}

void FrameLatencySampler::OnDrop(dupnet::sim::SimTime, const Message& m) {
  if (!in_flight_.empty()) Match(m, /*delivered=*/false);
}

void FrameLatencySampler::Match(const Message& m, bool delivered) {
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    const Stamp& s = in_flight_[i];
    if (s.to != m.to || s.from != m.from || s.type != m.type ||
        s.seq != m.seq || s.hops != m.hops || s.version != m.version) {
      continue;
    }
    if (delivered) {
      samples_us_->push_back(static_cast<double>(ThreadCpuNs() - s.cpu_ns) /
                             1e3);
    }
    in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

}  // namespace perfbench
