// The two simulator workloads (NOTES.md): dup-1m puts protocol state far
// beyond the last-level cache, mixed-4k keeps it cache-resident and mixes
// writes (churn, loss, retries) in with the reads.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "experiment/config.h"
#include "experiment/driver.h"
#include "trace.h"
#include "util/check.h"
#include "util/str.h"

namespace perfbench {
namespace {

using namespace dupnet;
using experiment::ExperimentConfig;
using experiment::Scheme;

ExperimentConfig Dup1mConfig(uint64_t seed) {
  ExperimentConfig config;
  config.scheme = Scheme::kDup;
  config.num_nodes = size_t{1} << 20;
  config.lambda = 0.005 * static_cast<double>(config.num_nodes);
  config.warmup_time = 0.0;
  config.measure_time = 3540.0;  // One TTL period (ttl - push_lead).
  config.seed = seed;
  return config;
}

ExperimentConfig Mixed4kConfig(Scheme scheme, uint64_t seed) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.num_nodes = 4096;
  config.lambda = 100.0;
  config.update_mode = experiment::UpdateMode::kHostDriven;
  config.host_change_rate = 0.05;
  config.churn.join_rate = 0.02;
  config.churn.leave_rate = 0.01;
  config.churn.fail_rate = 0.01;
  config.faults.loss_rate = 0.02;
  config.faults.retry_max = 3;
  config.faults.refresh_interval = 300.0;
  config.warmup_time = 0.0;
  config.measure_time = 36000.0;
  config.seed = seed;
  return config;
}

enum class Mode { kUntraced, kTraced, kAudited };

/// Untraced passes are timed in this many equal sim-time slices.
constexpr int kSlicesPerPass = 60;
/// Frame-latency samples of one scheme's pass, at most (about 70 k on
/// dup-1m, 60 k per scheme on mixed-4k).
constexpr size_t kMaxLatencySamples = size_t{1} << 19;

/// One scheme's simulation from construction to quiescence.
struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;
  uint64_t events = 0;
  uint64_t peak_bytes = 0;
  std::string digest;  ///< RunMetrics at the horizon.
  metrics::DeliveryCounters delivery;
  uint64_t queries_issued = 0;
  uint64_t queries_served = 0;
  uint64_t local_hits = 0;
  size_t event_slots = 0;
  size_t message_slots = 0;
  size_t pair_clock_slots = 0;
};

/// Builds the driver (timed as set-up), runs it to the horizon and then to
/// quiescence (timed as the run). RunMetrics are snapshotted at the
/// horizon, where RunToCompletion() would stop; the drain lets in-flight
/// queries finish so failures can be counted. An untraced pass feeds
/// `series` slice by slice, with `latency_us` as the sampler's scratch; a
/// traced pass feeds `ledger`. An audited pass is RunToCompletion() with
/// checkpoint audits and is not timed.
Pass RunPass(const ExperimentConfig& base, Mode mode, SliceSeries* series,
             std::vector<double>* latency_us, EventLedger* ledger,
             Report* report) {
  ExperimentConfig config = base;
  if (mode == Mode::kAudited) {
    config.audit_mode = audit::AuditMode::kCheckpoints;
  }
  Pass pass;
  heap::ResetPeak();
  const uint64_t live_before = heap::Live();
  const auto setup_start = Clock::now();
  auto driver = std::make_unique<experiment::SimulationDriver>(config);
  const util::Status init = driver->Init();
  pass.setup_s = SecondsSince(setup_start);
  DUP_CHECK_OK(init);

  if (mode == Mode::kAudited) {
    driver->RunToCompletion();
    const audit::InvariantChecker* checker = driver->audit_checker();
    report->Check(checker != nullptr && checker->total_violations() == 0,
                  std::string(experiment::SchemeToString(config.scheme)) +
                      " audit: " +
                      (checker == nullptr ? "no checker"
                                          : checker->ToStatus().ToString()));
    pass.digest = Digest(driver->Collect());
    return pass;
  }

  FrameLatencySampler sampler(latency_us);
  EventTracer tracer(driver.get(), ledger, /*continuous=*/true);
  if (mode == Mode::kTraced) {
    tracer.Attach();
  } else {
    driver->network().set_observer(&sampler);
  }
  sim::Engine& engine = driver->engine();
  const double horizon = config.warmup_time + config.measure_time;
  SliceMeter meter(series, latency_us);
  const auto run_start = Clock::now();
  if (mode == Mode::kUntraced) {
    meter.Begin(engine.processed(), sampler.delivered());
    for (int k = 1; k < kSlicesPerPass; ++k) {
      driver->RunUntil(horizon * k / kSlicesPerPass);
      meter.Cut(engine.processed(), sampler.delivered());
    }
  }
  driver->RunUntil(horizon);
  const metrics::RunMetrics at_horizon = driver->Collect();
  engine.Run();
  if (mode == Mode::kUntraced) {
    meter.Cut(engine.processed(), sampler.delivered());
  }
  pass.run_s = SecondsSince(run_start);
  if (mode == Mode::kTraced) {
    tracer.Detach();
  } else {
    driver->network().set_observer(nullptr);
  }
  pass.peak_bytes = heap::Peak() - live_before;
  pass.digest = Digest(at_horizon);
  pass.events = engine.processed();
  const metrics::Recorder& recorder = driver->recorder();
  pass.delivery = recorder.delivery();
  pass.queries_issued = recorder.queries_issued();
  pass.queries_served = recorder.queries_served();
  pass.local_hits = recorder.local_hits();
  pass.event_slots = engine.pool_slots();
  pass.message_slots = driver->network().message_pool_slots();
  pass.pair_clock_slots = driver->network().pair_clock_capacity();
  return pass;
}

double MeasureSetup(const ExperimentConfig& config) {
  const auto start = Clock::now();
  experiment::SimulationDriver driver(config);
  DUP_CHECK_OK(driver.Init());
  return SecondsSince(start);
}

/// Failure accounting. The base is every query issued plus every original
/// transmission. A failure is what the workload's seeded loss and churn do
/// not explain: a query left unserved at quiescence beyond the dropped
/// requests and replies (each drop strands at most one query), or a
/// reliable give-up beyond the dropped reliable transmissions divided by
/// the retry_max + 1 attempts each give-up needs.
void Account(const ExperimentConfig& config, const Pass& pass,
             Report* report) {
  const auto& d = pass.delivery;
  const auto at = [](metrics::HopClass c) { return static_cast<int>(c); };
  report->attempted +=
      pass.queries_issued + d.total_sent() - d.total_retries();
  const uint64_t unserved = pass.queries_issued - pass.queries_served;
  const uint64_t lost_queries =
      d.dropped[at(metrics::HopClass::kRequest)] +
      d.dropped[at(metrics::HopClass::kReply)];
  const uint64_t lost_reliable =
      (d.dropped[at(metrics::HopClass::kPush)] +
       d.dropped[at(metrics::HopClass::kControl)]) /
      (config.faults.retry_max + 1);
  const uint64_t giveups = d.total_giveups();
  report->failed += (unserved > lost_queries ? unserved - lost_queries : 0) +
                    (giveups > lost_reliable ? giveups - lost_reliable : 0);
}

struct SimWorkload {
  /// One config per scheme, run in this order; together they are a pass.
  std::vector<ExperimentConfig> configs;
  /// Untraced passes at least (2 gives the repeat check a second run
  /// where no audited pass provides one).
  int min_passes = 1;
  /// Set-ups at least, for a steady set-up median.
  size_t min_setups = 3;
  /// Whether an audited pass runs after the timed ones.
  bool audit = false;
};

Report RunSimWorkload(const SimWorkload& w, const Options& options) {
  Report report;
  const size_t schemes = w.configs.size();
  std::vector<std::string> digests(schemes);
  const auto check_digest = [&](size_t i, const std::string& digest,
                                const char* what) {
    if (digests[i].empty()) {
      digests[i] = digest;
      return;
    }
    report.Check(digest == digests[i],
                 std::string("RunMetrics differ (") + what + ", " +
                     std::string(experiment::SchemeToString(
                         w.configs[i].scheme)) +
                     "): " + digests[i] + " vs " + digest);
  };

  std::vector<double> setups;
  EndToEnd e2e;
  e2e.series.resize(schemes);
  // Sampling never allocates mid-pass (it would show in the peak heap).
  for (SliceSeries& series : e2e.series) {
    series.latency_us.reserve(kMaxLatencySamples);
  }
  std::vector<double> latency_us;
  latency_us.reserve(kMaxLatencySamples);
  LayerData layers;
  std::vector<uint64_t> peaks(schemes, 0);
  double run_s = 0.0;

  const auto run_passes = [&](Mode mode, const char* what) {
    double setup = 0.0;
    double wall = 0.0;
    for (size_t i = 0; i < schemes; ++i) {
      SliceSeries& series = e2e.series[i];
      const Pass pass = RunPass(w.configs[i], mode, &series, &latency_us,
                                &layers.ledger, &report);
      check_digest(i, pass.digest, what);
      if (mode != Mode::kAudited) Account(w.configs[i], pass, &report);
      report.notes.push_back(util::StrFormat(
          "%s %s: setup %.4f s, run %.3f s, %llu events, peak %.1f B/node",
          what,
          std::string(experiment::SchemeToString(w.configs[i].scheme)).c_str(),
          pass.setup_s, pass.run_s, static_cast<unsigned long long>(pass.events),
          static_cast<double>(pass.peak_bytes) /
              static_cast<double>(w.configs[i].num_nodes)));
      setup += pass.setup_s;
      wall += pass.run_s;
      if (mode == Mode::kUntraced) {
        peaks[i] = std::max(peaks[i], pass.peak_bytes);
        layers.scheme_events_per_s[static_cast<int>(w.configs[i].scheme)] =
            Median(series.event_rates);
        layers.latency_samples += series.latency_us.size();
      } else if (mode == Mode::kTraced) {
        layers.events += pass.events;
        for (int c = 0; c < metrics::kNumHopClasses; ++c) {
          layers.delivery.sent[c] += pass.delivery.sent[c];
          layers.delivery.delivered[c] += pass.delivery.delivered[c];
          layers.delivery.dropped[c] += pass.delivery.dropped[c];
          layers.delivery.retries[c] += pass.delivery.retries[c];
          layers.delivery.giveups[c] += pass.delivery.giveups[c];
        }
        layers.queries_issued += pass.queries_issued;
        layers.queries_unserved += pass.queries_issued - pass.queries_served;
        layers.local_hits += pass.local_hits;
        layers.event_slots = std::max(layers.event_slots, pass.event_slots);
        layers.message_slots =
            std::max(layers.message_slots, pass.message_slots);
        layers.pair_clock_slots =
            std::max(layers.pair_clock_slots, pass.pair_clock_slots);
      }
    }
    setups.push_back(setup);
    return wall;
  };

  if (!options.trace) {
    int passes = 0;
    while (passes < w.min_passes || run_s < options.seconds) {
      run_s += run_passes(Mode::kUntraced, "repeat");
      ++passes;
    }
  } else {
    layers.untraced_wall_s = run_passes(Mode::kUntraced, "repeat");
    layers.traced_wall_s = run_passes(Mode::kTraced, "traced vs untraced");
  }
  if (w.audit) run_passes(Mode::kAudited, "audited vs unaudited");
  while (setups.size() < w.min_setups) {
    double setup = 0.0;
    for (const ExperimentConfig& config : w.configs) {
      setup += MeasureSetup(config);
    }
    setups.push_back(setup);
  }

  const double setup_s = Median(setups);
  if (!options.trace) {
    e2e.setup_s = setup_s;
    // Mean over the schemes: one scheme crossing a pool's capacity
    // doubling on some seeds must not swing the figure by a whole pool.
    double peak_sum = 0.0;
    for (uint64_t peak : peaks) peak_sum += static_cast<double>(peak);
    e2e.peak_bytes_per_node = peak_sum / static_cast<double>(schemes) /
                              static_cast<double>(w.configs[0].num_nodes);
    EmitEndToEnd(e2e, &report);
    return report;
  }
  ProbeParams params;
  params.nodes = w.configs[0].num_nodes;
  params.max_degree = w.configs[0].max_degree;
  params.theta = w.configs[0].zipf_theta;
  params.threshold_c = w.configs[0].threshold_c;
  params.hop_latency = w.configs[0].hop_latency_mean;
  params.pending = layers.ledger.pending_max;
  params.seed = options.seed;
  layers.probes = RunProbes(params);
  layers.init_s = std::max(0.0, setup_s - layers.probes.tree_build_s *
                                              static_cast<double>(schemes));
  EmitPerLayer(layers, &report);
  return report;
}

}  // namespace

Report RunDup1m(const Options& options) {
  SimWorkload w;
  w.configs = {Dup1mConfig(options.seed)};
  w.min_passes = 2;
  w.min_setups = 7;
  return RunSimWorkload(w, options);
}

Report RunMixed4k(const Options& options) {
  SimWorkload w;
  for (Scheme scheme : {Scheme::kPcx, Scheme::kCup, Scheme::kDup}) {
    w.configs.push_back(Mixed4kConfig(scheme, options.seed));
  }
  w.min_passes = 1;
  w.min_setups = 101;
  w.audit = true;
  return RunSimWorkload(w, options);
}

}  // namespace perfbench
