#ifndef DUP_PERFBENCH_TRACE_H_
#define DUP_PERFBENCH_TRACE_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "experiment/driver.h"
#include "metrics/recorder.h"
#include "net/overlay_network.h"
#include "probes.h"

namespace perfbench {

/// In-memory aggregate of one span name: count, total time and a bounded
/// reservoir sample for percentiles (never the raw spans — a 2^20 run has
/// 27 M of them). The reservoir draws from its own generator, never from
/// the simulation's.
class SpanStat {
 public:
  void Add(uint64_t ns);
  uint64_t count() const { return count_; }
  uint64_t total_ns() const { return total_ns_; }
  double MeanNs() const {
    return count_ == 0 ? 0.0 : static_cast<double>(total_ns_) / count_;
  }
  double QuantileNs(double q) const;

 private:
  static constexpr size_t kSampleCap = 8192;
  uint64_t count_ = 0;
  uint64_t total_ns_ = 0;
  uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  std::vector<uint32_t> sample_;
};

/// The classes an engine event is sorted into, from what it did as seen
/// through public hooks (see EventTracer).
enum EventKind : int {
  kKindQuery = 0,
  kKindDeliverRequest,  // + HopClass: request, reply, push, control.
  kKindRetryTimer = kKindDeliverRequest + dupnet::metrics::kNumHopClasses,
  kKindOther,
  kNumKinds,
};

/// Spans of one traced pass. Each event is split into disjoint spans, so
/// their sum over the traced wall time is the trace coverage.
struct EventLedger {
  SpanStat event;  ///< Whole event, hook to hook.
  SpanStat query;  ///< Query-arrival events (self time: no child spans).
  SpanStat deliver[dupnet::metrics::kNumHopClasses];  ///< Start -> OnDeliver.
  SpanStat handle[dupnet::metrics::kNumHopClasses];   ///< OnDeliver -> end.
  SpanStat retry_timer;
  SpanStat other;
  uint64_t kind_events[kNumKinds] = {};
  size_t pending_max = 0;
  /// Time attributed to spans outside engine events (wire: Pump calls).
  uint64_t extra_covered_ns = 0;

  /// Sum of all partitioning spans, in ns.
  uint64_t CoveredNs() const;
};

/// Traces one simulation pass from outside the program: the engine's
/// post-event hook closes each event's span, and the network observer
/// marks where a delivery hands over to the protocol (OnDeliver).
///
/// Classification, first match wins:
///  - the event's first observer callback is OnDeliver: a delivery of that
///    message's hop class, split at OnDeliver into net and proto spans;
///  - the recorder counted a new query: a query arrival;
///  - with reliable delivery armed, the network counted a retry or
///    give-up, or the event had no visible effect and removed exactly one
///    pending event: a retry timer (an acked sequence's timer is a silent
///    no-op);
///  - anything else (publish, churn, refresh, warm-up end): other.
///
/// In continuous mode (sim loops) each hook also opens the next event. In
/// gated mode (the wire loop, which pumps the socket between steps) the
/// caller opens each event with BeginEvent() and callbacks outside events
/// are ignored.
class EventTracer : public dupnet::net::MessageObserver {
 public:
  EventTracer(dupnet::experiment::SimulationDriver* driver,
              EventLedger* ledger, bool continuous);
  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Installs the hook and observer and opens the first event now.
  void Attach();
  /// Removes both hooks.
  void Detach();
  void BeginEvent();

  void OnSend(dupnet::sim::SimTime, const dupnet::net::Message&) override;
  void OnDeliver(dupnet::sim::SimTime,
                 const dupnet::net::Message& message) override;
  void OnDrop(dupnet::sim::SimTime, const dupnet::net::Message&) override;

 private:
  enum class First { kNone, kDeliver, kOther };
  void OnEventEnd();
  void Open(Clock::time_point now);

  dupnet::experiment::SimulationDriver* driver_;
  EventLedger* ledger_;
  bool continuous_;
  bool reliable_ = false;  ///< Retry timers exist only when reliable.
  bool in_event_ = false;
  Clock::time_point start_;
  Clock::time_point deliver_at_;
  First first_ = First::kNone;
  int deliver_class_ = 0;
  uint64_t queries_before_ = 0;
  uint64_t retries_before_ = 0;
  size_t pending_before_ = 0;
};

/// Everything a traced run reports per layer. Fields a workload does not
/// exercise stay 0 (the wire figures on the sim workloads, the per-class
/// delivery split on the wire, PCX and CUP outside mixed-4k).
struct LayerData {
  EventLedger ledger;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  /// Untraced events/s of each scheme's pass, indexed by Scheme (PCX,
  /// CUP, DUP).
  double scheme_events_per_s[3] = {};
  ProbeResults probes;
  double init_s = 0.0;
  uint64_t events = 0;
  dupnet::metrics::DeliveryCounters delivery;
  uint64_t queries_issued = 0;
  uint64_t queries_unserved = 0;
  uint64_t local_hits = 0;
  size_t event_slots = 0;
  size_t message_slots = 0;
  size_t pair_clock_slots = 0;
  // Wire path.
  uint64_t frames_shipped = 0;
  uint64_t frames_received = 0;
  uint64_t frames_rejected = 0;
  uint64_t frames_lost = 0;
  SpanStat ship;
  double pump_ns_per_frame = 0.0;
  double frame_bytes_mean = 0.0;
  CodecResults codec;
  /// Frame-latency samples behind the end-to-end percentiles.
  uint64_t latency_samples = 0;
};

/// Sets every per-layer metric of the benchmark from `layers`.
void EmitPerLayer(const LayerData& layers, Report* report);

/// One scheme's measured passes, cut into slices of a fraction of a
/// second. Each scheme's run time is taken as its events over the median
/// slice event rate, and latency from the slices' percentiles: a burst of
/// noise from other tenants of the machine moves these far less than
/// whole-run totals. (Frames are too bursty for a per-slice median; they
/// are divided by the same run time.) Every pass does the same work and
/// stamps the same transmissions, so a burst that slows a stamped
/// transmission in one pass rarely slows it in another; each sample keeps
/// its lowest latency over the passes.
struct SliceSeries {
  uint64_t events = 0;
  uint64_t frames = 0;
  int passes = 0;
  std::vector<double> event_rates;
  /// Frame-latency sample i of every pass stamps the same transmission;
  /// this keeps the lowest of its values over the passes.
  std::vector<double> latency_us;
  /// Number of samples up to the end of each slice (first pass).
  std::vector<size_t> slice_ends;
  /// Samples of the latest pass so far, and whether every pass had as
  /// many as the first.
  size_t pass_samples = 0;
  bool aligned = true;
};

/// Cuts a measured pass into slices. The latency sampler appends to
/// `latency_us`; each Cut() folds it into the series and clears it.
class SliceMeter {
 public:
  /// Slices with fewer samples report no latency percentiles (p99 needs at
  /// least ten samples beyond it).
  static constexpr size_t kMinLatencySamples = 1000;

  SliceMeter(SliceSeries* series, std::vector<double>* latency_us)
      : series_(series), latency_us_(latency_us) {}

  /// Starts a pass: opens its first slice at the given cumulative counts.
  void Begin(uint64_t events, uint64_t frames);
  /// Closes the current slice and opens the next.
  void Cut(uint64_t events, uint64_t frames);

 private:
  SliceSeries* series_;
  std::vector<double>* latency_us_;
  Clock::time_point start_;
  uint64_t events_ = 0;
  uint64_t frames_ = 0;
  size_t sample_ = 0;
};

/// The end-to-end metrics of one untraced run.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_bytes_per_node = 0.0;
  std::vector<SliceSeries> series;  ///< One per scheme.
};

/// Sets every end-to-end metric from `e2e`. Throughput over several
/// schemes is total work over the sum of the schemes' run times; latency
/// percentiles are interquartile means over the slices' percentiles,
/// each taken over the slice's lowest-over-passes samples.
void EmitEndToEnd(EndToEnd& e2e, Report* report);

/// Untraced-run probe for frame latency on the simulated medium: stamps
/// one protocol transmission in kPeriod at OnSend and matches it at its
/// OnDeliver (or OnDrop) by field comparison. Transport acks are not
/// stamped: an ack's delay holds up no protocol action. In-flight samples
/// are few, so the match is a short linear scan.
///
/// The simulator runs on one thread and never blocks, so a message's wait
/// is the thread's CPU time between the two callbacks: the cost of the
/// events queued before it. Wall time would add every preemption by
/// another tenant of the machine to each message in flight, which moves
/// the tail percentiles by tens of percent.
class FrameLatencySampler : public dupnet::net::MessageObserver {
 public:
  static constexpr uint64_t kPeriod = 128;

  explicit FrameLatencySampler(std::vector<double>* samples_us)
      : samples_us_(samples_us) {}
  FrameLatencySampler(const FrameLatencySampler&) = delete;
  FrameLatencySampler& operator=(const FrameLatencySampler&) = delete;

  void OnSend(dupnet::sim::SimTime, const dupnet::net::Message& m) override;
  void OnDeliver(dupnet::sim::SimTime,
                 const dupnet::net::Message& m) override;
  void OnDrop(dupnet::sim::SimTime, const dupnet::net::Message& m) override;

  /// Every transmission delivered (acks included).
  uint64_t delivered() const { return delivered_; }

 private:
  struct Stamp {
    dupnet::net::MessageType type;
    dupnet::NodeId from;
    dupnet::NodeId to;
    uint32_t hops;
    uint64_t seq;
    dupnet::IndexVersion version;
    uint64_t cpu_ns;
  };
  void Match(const dupnet::net::Message& m, bool delivered);

  std::vector<double>* samples_us_;
  std::vector<Stamp> in_flight_;
  uint64_t sends_ = 0;
  uint64_t delivered_ = 0;
};

}  // namespace perfbench

#endif  // DUP_PERFBENCH_TRACE_H_
