// wire-loopback (NOTES.md): DUP with dupd's defaults where every overlay
// transmission crosses a real UDP socket on 127.0.0.1 as a net::wire frame
// and is parsed back into the same process. The loop is closed and
// unpaced: step one engine event, and whenever it shipped frames drain the
// socket; run to quiescence.

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "experiment/config.h"
#include "experiment/driver.h"
#include "net/transport.h"
#include "net/udp_transport.h"
#include "net/wire.h"
#include "trace.h"
#include "util/check.h"
#include "util/str.h"

namespace perfbench {
namespace {

using namespace dupnet;
using experiment::ExperimentConfig;

/// Sim seconds per pass: about 6 M frames at lambda = 5.
constexpr double kHorizon = 300000.0;
/// Untraced runs stamp one frame in kLatencyPeriod (FIFO-matched).
constexpr uint64_t kLatencyPeriod = 16;
/// Untraced passes are timed in slices of this many engine steps.
constexpr uint64_t kSliceSteps = uint64_t{1} << 15;
/// Traced runs keep one shipped message in kCapturePeriod for the codec
/// replay, up to kCaptureMax.
constexpr uint64_t kCapturePeriod = 64;
constexpr size_t kCaptureMax = 65536;
/// First UDP port tried, and how many after it.
constexpr int kBasePort = 21000;
constexpr int kPortTries = 200;

ExperimentConfig WireConfig(uint64_t seed) {
  ExperimentConfig config;
  config.scheme = experiment::Scheme::kDup;
  config.num_nodes = 1024;
  config.lambda = 5.0;
  config.threshold_c = 2;
  config.ttl = 60.0;
  config.push_lead = 5.0;
  config.hop_latency_mean = 0.01;
  config.faults.retry_max = 3;
  config.warmup_time = 0.0;
  config.measure_time = kHorizon;
  config.seed = seed;
  return config;
}

/// Binds a loopback-wire transport to the first free port in the range.
std::unique_ptr<net::UdpTransport> OpenLoopback() {
  for (int i = 0; i < kPortTries; ++i) {
    auto transport = std::make_unique<net::UdpTransport>();
    net::UdpTransport::Options options;
    options.peers = {util::StrFormat("127.0.0.1:%d", kBasePort + i)};
    options.loopback_wire = true;
    if (transport->Open(options).ok()) return transport;
  }
  DUP_CHECK(false) << "no free UDP port in [" << kBasePort << ", "
                   << kBasePort + kPortTries << ")";
  return nullptr;
}

/// Fields that identify a frame when matching a Ship to its delivery.
struct FrameKey {
  net::MessageType type;
  NodeId from;
  NodeId to;
  uint64_t seq;
  bool operator==(const FrameKey&) const = default;
};

FrameKey KeyOf(const net::Message& m) {
  return FrameKey{m.type, m.from, m.to, m.seq};
}

/// Pass-through net::Transport around the UdpTransport. Untraced, it
/// stamps every kLatencyPeriod-th frame unless it is a transport ack (an
/// ack's delay holds up no protocol action); traced, it times every Ship
/// and captures frames for the codec replay.
class StampTransport : public net::Transport {
 public:
  struct Stamp {
    uint64_t index;
    FrameKey key;
    Clock::time_point at;
  };

  StampTransport(net::UdpTransport* inner, bool traced, LayerData* layers)
      : inner_(inner), traced_(traced), layers_(layers) {}
  StampTransport(const StampTransport&) = delete;
  StampTransport& operator=(const StampTransport&) = delete;

  std::string_view name() const override { return inner_->name(); }
  bool IsLocal(NodeId node) const override { return inner_->IsLocal(node); }

  util::Status Ship(const net::Message& message) override {
    const uint64_t index = inner_->frames_shipped();
    if (!traced_) {
      if (index % kLatencyPeriod != 0 ||
          message.type == net::MessageType::kAck) {
        return inner_->Ship(message);
      }
      const Clock::time_point at = Clock::now();
      util::Status status = inner_->Ship(message);
      if (inner_->frames_shipped() != index) {
        stamps_.push_back(Stamp{index, KeyOf(message), at});
      }
      return status;
    }
    const Clock::time_point start = Clock::now();
    util::Status status = inner_->Ship(message);
    const uint64_t ns = Nanos(start, Clock::now());
    layers_->ship.Add(ns);
    if (!in_handler_) outer_ship_ns_ += ns;
    bytes_ += net::wire::SerializedSize(message);
    if (index % kCapturePeriod == 0 && captured_.size() < kCaptureMax) {
      captured_.push_back(message);
    }
    return status;
  }

  std::deque<Stamp>& stamps() { return stamps_; }
  void set_in_handler(bool in) { in_handler_ = in; }
  uint64_t outer_ship_ns() const { return outer_ship_ns_; }
  uint64_t bytes() const { return bytes_; }
  const std::vector<net::Message>& captured() const { return captured_; }

 private:
  net::UdpTransport* inner_;
  bool traced_;
  LayerData* layers_;
  std::deque<Stamp> stamps_;
  bool in_handler_ = false;
  uint64_t outer_ship_ns_ = 0;
  uint64_t bytes_ = 0;
  std::vector<net::Message> captured_;
};

/// Untraced delivery side: frames arrive in Ship order (one socket, FIFO
/// loopback), so the n-th OnDeliver is the n-th shipped frame.
class LatencyObserver : public net::MessageObserver {
 public:
  LatencyObserver(StampTransport* stamps, std::vector<double>* samples_us)
      : stamps_(stamps), samples_us_(samples_us) {}
  LatencyObserver(const LatencyObserver&) = delete;
  LatencyObserver& operator=(const LatencyObserver&) = delete;

  void OnSend(sim::SimTime, const net::Message&) override {}
  void OnDrop(sim::SimTime, const net::Message&) override {}
  void OnDeliver(sim::SimTime, const net::Message& message) override {
    const uint64_t index = delivered_++;
    std::deque<StampTransport::Stamp>& stamps = stamps_->stamps();
    if (stamps.empty() || stamps.front().index != index) return;
    if (stamps.front().key == KeyOf(message)) {
      samples_us_->push_back(
          static_cast<double>(Nanos(stamps.front().at, Clock::now())) / 1e3);
    } else {
      ++mismatches_;
    }
    stamps.pop_front();
  }

  uint64_t mismatches() const { return mismatches_; }

 private:
  StampTransport* stamps_;
  std::vector<double>* samples_us_;
  uint64_t delivered_ = 0;
  uint64_t mismatches_ = 0;
};

/// Traced delivery side: times the protocol's handling of each frame.
class HandlerSpanSink : public net::MessageSink {
 public:
  HandlerSpanSink(net::MessageSink* inner, StampTransport* transport,
                  EventLedger* ledger)
      : inner_(inner), transport_(transport), ledger_(ledger) {}
  HandlerSpanSink(const HandlerSpanSink&) = delete;
  HandlerSpanSink& operator=(const HandlerSpanSink&) = delete;

  void OnMessage(const net::Message& message) override {
    const Clock::time_point start = Clock::now();
    transport_->set_in_handler(true);
    inner_->OnMessage(message);
    transport_->set_in_handler(false);
    ledger_->handle[static_cast<int>(net::HopClassOf(message.type))].Add(
        Nanos(start, Clock::now()));
  }

 private:
  net::MessageSink* inner_;
  StampTransport* transport_;
  EventLedger* ledger_;
};

struct WirePass {
  double setup_s = 0.0;
  double run_s = 0.0;
  uint64_t events = 0;
  uint64_t peak_bytes = 0;
  std::string digest;
  uint64_t shipped = 0;
  uint64_t received = 0;
  uint64_t rejected = 0;
  uint64_t giveups = 0;
};

/// One pass from socket open to quiescence. Untraced, it feeds `series`
/// slice by slice with `latency_us` as the sampler's scratch; traced, it
/// feeds `layers`.
WirePass RunWirePass(const ExperimentConfig& config, bool traced,
                     SliceSeries* series, std::vector<double>* latency_us,
                     LayerData* layers, Report* report) {
  WirePass pass;
  heap::ResetPeak();
  const uint64_t live_before = heap::Live();
  const auto setup_start = Clock::now();
  std::unique_ptr<net::UdpTransport> transport = OpenLoopback();
  StampTransport stamp(transport.get(), traced, layers);
  auto driver = std::make_unique<experiment::SimulationDriver>(config);
  driver->set_transport(&stamp);
  const util::Status init = driver->Init();
  transport->set_network(&driver->network());
  pass.setup_s = SecondsSince(setup_start);
  DUP_CHECK_OK(init);

  sim::Engine& engine = driver->engine();
  LatencyObserver latency(&stamp, latency_us);
  EventTracer tracer(driver.get(), &layers->ledger, /*continuous=*/false);
  HandlerSpanSink handler(&driver->protocol(), &stamp, &layers->ledger);
  if (traced) {
    tracer.Attach();
    driver->network().set_sink(&handler);
  } else {
    driver->network().set_observer(&latency);
  }

  uint64_t pump_ns = 0;
  const auto pump = [&](int timeout_ms) {
    const Clock::time_point start = Clock::now();
    const util::Result<size_t> got = transport->Pump(timeout_ms);
    pump_ns += Nanos(start, Clock::now());
    DUP_CHECK_OK(got.status());
    return *got;
  };
  // A frame still in the socket when the engine runs dry gets this many
  // 100 ms waits before it is counted lost.
  int straggler_waits = 20;
  SliceMeter meter(series, latency_us);
  uint64_t steps = 0;
  const auto run_start = Clock::now();
  if (!traced) meter.Begin(engine.processed(), transport->frames_received());
  uint64_t seen = transport->frames_shipped();
  for (;;) {
    if (transport->frames_shipped() != seen) {
      pump(0);
      seen = transport->frames_shipped();
      continue;
    }
    if (engine.pending() == 0) {
      if (transport->frames_received() + transport->frames_rejected() >=
          transport->frames_shipped()) {
        break;
      }
      if (pump(100) == 0 && --straggler_waits == 0) break;
      seen = transport->frames_shipped();
      continue;
    }
    if (traced) {
      tracer.BeginEvent();
    } else if (++steps % kSliceSteps == 0) {
      meter.Cut(engine.processed(), transport->frames_received());
    }
    engine.Step();
  }
  if (!traced) meter.Cut(engine.processed(), transport->frames_received());
  pass.run_s = SecondsSince(run_start);
  if (traced) {
    tracer.Detach();
    driver->network().set_sink(&driver->protocol());
  } else {
    driver->network().set_observer(nullptr);
  }
  pass.peak_bytes = heap::Peak() - live_before;

  pass.events = engine.processed();
  pass.shipped = transport->frames_shipped();
  pass.received = transport->frames_received();
  pass.rejected = transport->frames_rejected();
  pass.giveups = driver->recorder().delivery().total_giveups();
  pass.digest = Digest(driver->Collect());

  const uint64_t lost = pass.shipped - pass.received - pass.rejected;
  report->Check(pass.rejected == 0,
                util::StrFormat("%llu frames rejected",
                                static_cast<unsigned long long>(pass.rejected)));
  report->Check(lost == 0, util::StrFormat("%llu frames lost",
                                           static_cast<unsigned long long>(lost)));
  report->Check(latency.mismatches() == 0,
                "a delivered frame did not match its stamped Ship");
  report->Check(driver->network().pending_acks() == 0 &&
                    driver->network().in_flight_count() == 0,
                "network not quiescent at the end of the run");
  const util::Status audit = driver->AuditQuiescent();
  report->Check(audit.ok(), "AuditQuiescent: " + audit.ToString());

  if (traced) {
    const EventLedger& l = layers->ledger;
    uint64_t handled_ns = 0;
    for (int c = 0; c < metrics::kNumHopClasses; ++c) {
      handled_ns += l.handle[c].total_ns();
    }
    // Pump time splits into protocol handling (already a span) and the
    // rest; the rest minus ack ships is receive, parse, verify, deliver.
    layers->ledger.extra_covered_ns = pump_ns - handled_ns;
    const uint64_t own_ns = pump_ns - handled_ns - stamp.outer_ship_ns();
    layers->pump_ns_per_frame =
        pass.received == 0 ? 0.0
                           : static_cast<double>(own_ns) /
                                 static_cast<double>(pass.received);
    layers->frame_bytes_mean =
        pass.shipped == 0 ? 0.0
                          : static_cast<double>(stamp.bytes()) /
                                static_cast<double>(pass.shipped);
    layers->codec = ReplayCodec(stamp.captured());
    layers->events = pass.events;
    layers->delivery = driver->recorder().delivery();
    layers->queries_issued = driver->recorder().queries_issued();
    layers->queries_unserved =
        layers->queries_issued - driver->recorder().queries_served();
    layers->local_hits = driver->recorder().local_hits();
    layers->event_slots = engine.pool_slots();
    layers->message_slots = driver->network().message_pool_slots();
    layers->pair_clock_slots = driver->network().pair_clock_capacity();
    layers->frames_shipped = pass.shipped;
    layers->frames_received = pass.received;
    layers->frames_rejected = pass.rejected;
    layers->frames_lost = lost;
  }
  return pass;
}

double MeasureWireSetup(const ExperimentConfig& config) {
  const auto start = Clock::now();
  std::unique_ptr<net::UdpTransport> transport = OpenLoopback();
  experiment::SimulationDriver driver(config);
  driver.set_transport(transport.get());
  DUP_CHECK_OK(driver.Init());
  transport->set_network(&driver.network());
  return SecondsSince(start);
}

}  // namespace

Report RunWireLoopback(const Options& options) {
  constexpr int kMinPasses = 2;
  constexpr size_t kMinSetups = 101;
  const ExperimentConfig config = WireConfig(options.seed);
  Report report;
  LayerData layers;
  EndToEnd e2e;
  e2e.series.resize(1);
  // Sampling never allocates mid-pass (it would show in the peak heap):
  // about 300 k samples per pass.
  e2e.series[0].latency_us.reserve(size_t{1} << 19);
  std::vector<double> latency_us;
  latency_us.reserve(size_t{1} << 16);
  std::vector<double> setups;
  std::string digest;
  uint64_t peak = 0;
  double run_s = 0.0;

  const auto run_pass = [&](bool traced, const char* what) {
    const WirePass pass = RunWirePass(config, traced, &e2e.series[0],
                                      &latency_us, &layers, &report);
    if (digest.empty()) {
      digest = pass.digest;
    } else {
      report.Check(pass.digest == digest,
                   std::string("RunMetrics differ (") + what + "): " + digest +
                       " vs " + pass.digest);
    }
    report.attempted += pass.shipped;
    report.failed += pass.shipped - pass.received + pass.rejected +
                     pass.giveups;
    setups.push_back(pass.setup_s);
    report.notes.push_back(util::StrFormat(
        "%s: setup %.4f s, run %.3f s, %llu events, %llu frames", what,
        pass.setup_s, pass.run_s, static_cast<unsigned long long>(pass.events),
        static_cast<unsigned long long>(pass.received)));
    if (!traced) peak = std::max(peak, pass.peak_bytes);
    return pass.run_s;
  };

  if (!options.trace) {
    int passes = 0;
    while (passes < kMinPasses || run_s < options.seconds) {
      run_s += run_pass(false, "repeat");
      ++passes;
    }
  } else {
    layers.untraced_wall_s = run_pass(false, "repeat");
    layers.scheme_events_per_s[static_cast<int>(config.scheme)] =
        Median(e2e.series[0].event_rates);
    layers.latency_samples = e2e.series[0].latency_us.size();
    layers.traced_wall_s = run_pass(true, "traced vs untraced");
  }
  while (setups.size() < kMinSetups) setups.push_back(MeasureWireSetup(config));

  const double setup_s = Median(setups);
  if (!options.trace) {
    e2e.setup_s = setup_s;
    e2e.peak_bytes_per_node =
        static_cast<double>(peak) / static_cast<double>(config.num_nodes);
    EmitEndToEnd(e2e, &report);
    return report;
  }
  ProbeParams params;
  params.nodes = config.num_nodes;
  params.max_degree = config.max_degree;
  params.theta = config.zipf_theta;
  params.threshold_c = config.threshold_c;
  params.hop_latency = config.hop_latency_mean;
  params.pending = layers.ledger.pending_max;
  params.seed = options.seed;
  layers.probes = RunProbes(params);
  layers.init_s = std::max(0.0, setup_s - layers.probes.tree_build_s);
  EmitPerLayer(layers, &report);
  return report;
}

}  // namespace perfbench
