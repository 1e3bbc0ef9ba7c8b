#include "probes.h"

#include <algorithm>
#include <optional>

#include "bench.h"
#include "cache/access_tracker.h"
#include "core/node_registry.h"
#include "metrics/recorder.h"
#include "net/overlay_network.h"
#include "net/pair_clock.h"
#include "net/wire.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "topo/tree_generator.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/zipf_selector.h"

namespace perfbench {
namespace {

using namespace dupnet;

/// Operations per probe: enough that each timed loop runs for tens of
/// milliseconds even on cache-resident data.
constexpr size_t kOps = size_t{1} << 22;

/// Keeps probe results observable so the loops are not optimised away.
volatile uint64_t g_sink = 0;
/// Always 0, but opaque to the compiler: masking a result with it makes
/// each lookup's address depend on the previous lookup, so the lookup
/// probes time one access after another (as an event does), not a
/// pipelined stream of independent ones.
volatile uint32_t g_zero = 0;

double NsPerOp(Clock::time_point start, size_t ops) {
  return static_cast<double>(Nanos(start, Clock::now())) /
         static_cast<double>(ops);
}

struct NullTarget : sim::EventTarget {
  void OnSimEvent(uint32_t, uint64_t) override {}
};

struct NullSink : net::MessageSink {
  void OnMessage(const net::Message&) override {}
};

/// Pop-then-push cycles on a calendar queue holding `held` events, with
/// exponential gaps so the pending set spans a constant sim-time window.
double QueueHoldNs(size_t held, util::Rng* rng) {
  sim::EventQueue queue;
  queue.Reserve(held);
  NullTarget target;
  for (size_t i = 0; i < held; ++i) {
    queue.Push(rng->UniformDouble(0.0, 1.0), &target, 0, i);
  }
  const double mean_gap = 1.0;
  const auto start = Clock::now();
  for (size_t i = 0; i < kOps; ++i) {
    const sim::Event e = queue.Pop();
    queue.Push(e.time + rng->Exponential(mean_gap), &target, 0, e.arg);
  }
  return NsPerOp(start, kOps);
}

}  // namespace

ProbeResults RunProbes(const ProbeParams& params) {
  ProbeResults out;
  util::Rng rng(params.seed);
  const size_t n = params.nodes;

  // Tree build, repeated at small N so the median is steady.
  topo::TreeGeneratorOptions gen;
  gen.num_nodes = n;
  gen.max_degree = params.max_degree;
  const int builds = n >= 100000 ? 1 : 15;
  std::vector<double> build_s;
  std::optional<topo::IndexSearchTree> tree;
  for (int i = 0; i < builds; ++i) {
    util::Rng tree_rng(params.seed);
    const auto start = Clock::now();
    auto built = topo::TreeGenerator::Generate(gen, &tree_rng);
    build_s.push_back(SecondsSince(start));
    DUP_CHECK_OK(built.status());
    tree.emplace(std::move(*built));
  }
  out.tree_build_s = Median(build_s);

  std::vector<NodeId> nodes(n);
  for (size_t i = 0; i < n; ++i) nodes[i] = static_cast<NodeId>(i);
  util::Rng perm_rng = rng.Fork();
  const workload::ZipfNodeSelector zipf(nodes, params.theta, &perm_rng);

  uint64_t acc = 0;
  const uint32_t zero = g_zero;
  std::vector<NodeId> ids(kOps);
  {
    const auto start = Clock::now();
    for (size_t i = 0; i < kOps; ++i) ids[i] = zipf.Sample(&rng);
    out.zipf_sample_ns = NsPerOp(start, kOps);
  }

  {
    core::NodeRegistry registry;
    for (size_t i = 0; i < n; ++i) registry.Acquire(static_cast<NodeId>(i));
    uint32_t slot = 0;
    const auto start = Clock::now();
    for (NodeId id : ids) {
      slot = registry.SlotOf(id ^ (slot & zero));
      acc += slot;
    }
    out.registry_slot_of_ns = NsPerOp(start, kOps);
  }

  {
    const uint32_t cap = params.threshold_c + 1;
    std::vector<sim::SimTime> rings(n * cap, 0.0);
    std::vector<uint32_t> heads(n, 0);
    std::vector<uint32_t> counts(n, 0);
    sim::SimTime now = 0.0;
    uint32_t last = 0;
    const auto start = Clock::now();
    for (NodeId id : ids) {
      now += 1e-3;
      const NodeId node = id ^ (last & zero);
      cache::AccessTracker::RecordStamp(now, &rings[size_t{node} * cap], cap,
                                        &heads[node], &counts[node]);
      last = counts[node];
    }
    out.tracker_record_ns = NsPerOp(start, kOps);
    acc += counts[ids[0]];
  }

  // Tree links of the sampled nodes: child -> parent (requests) and
  // parent -> child (replies), as the network's FIFO clock sees them.
  const NodeId root = tree->root();
  std::vector<NodeId> parent_of(n);
  for (size_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    parent_of[i] = id == root ? tree->Children(root).front() : tree->Parent(id);
  }
  tree.reset();

  {
    net::PairClock clock;
    sim::SimTime now = 0.0;
    uint32_t last = 0;
    const auto start = Clock::now();
    for (size_t i = 0; i < kOps; ++i) {
      const uint64_t a = ids[i] ^ (last & zero);
      const uint64_t b = parent_of[a];
      const uint64_t key = (i & 1) != 0 ? (a << 32 | b) : (b << 32 | a);
      now += 1e-4;
      const sim::SimTime at = clock.Advance(key, now + 0.1, now);
      last = static_cast<uint32_t>(at);
      acc += last;
    }
    out.pair_clock_advance_ns = NsPerOp(start, kOps);
  }

  out.queue_hold_ns = QueueHoldNs(std::max<size_t>(1, params.pending), &rng);

  {
    sim::Engine engine;
    util::Rng net_rng(params.seed ^ 0x5eedULL);
    metrics::Recorder recorder;
    net::OverlayNetwork network(&engine, &net_rng, &recorder,
                                params.hop_latency);
    NullSink sink;
    network.set_sink(&sink);
    net::Message message;
    constexpr size_t kBatch = 64;
    const auto start = Clock::now();
    for (size_t i = 0; i < kOps; i += kBatch) {
      for (size_t j = i; j < i + kBatch; ++j) {
        message.from = ids[j];
        message.to = parent_of[ids[j]];
        network.Send(message);
      }
      while (engine.Step()) {
      }
    }
    out.send_deliver_ns = NsPerOp(start, kOps);
    acc += recorder.delivery().total_delivered();
  }

  {
    // One query round trip's worth of recorder calls (8 per iteration).
    metrics::Recorder recorder;
    constexpr size_t kCallsPerIter = 8;
    const size_t iters = kOps / kCallsPerIter;
    const auto start = Clock::now();
    for (size_t i = 0; i < iters; ++i) {
      const uint32_t hops = ids[i] & 7;
      recorder.OnQueryIssued();
      recorder.AddHops(metrics::HopClass::kRequest, hops);
      recorder.OnMessageSent(metrics::HopClass::kRequest);
      recorder.OnMessageDelivered(metrics::HopClass::kRequest);
      recorder.AddHops(metrics::HopClass::kReply, hops);
      recorder.OnMessageSent(metrics::HopClass::kReply);
      recorder.OnMessageDelivered(metrics::HopClass::kReply);
      recorder.OnQueryServed(hops, false);
    }
    out.recorder_ns = NsPerOp(start, iters * kCallsPerIter);
    acc += recorder.queries_served();
  }

  g_sink = acc;
  return out;
}

CodecResults ReplayCodec(const std::vector<net::Message>& frames) {
  CodecResults out;
  if (frames.empty()) return out;
  const size_t rounds =
      std::max<size_t>(1, (size_t{1} << 21) / frames.size());
  std::vector<uint8_t> scratch;
  uint64_t acc = 0;
  {
    const auto start = Clock::now();
    for (size_t r = 0; r < rounds; ++r) {
      for (const net::Message& m : frames) {
        DUP_CHECK_OK(net::wire::Serialize(m, &scratch));
        acc += scratch.size();
      }
    }
    out.serialize_ns = NsPerOp(start, rounds * frames.size());
  }
  std::vector<uint8_t> flat;
  std::vector<size_t> offsets;
  for (const net::Message& m : frames) {
    DUP_CHECK_OK(net::wire::Serialize(m, &scratch));
    offsets.push_back(flat.size());
    flat.insert(flat.end(), scratch.begin(), scratch.end());
  }
  offsets.push_back(flat.size());
  net::Message decoded;
  {
    const auto start = Clock::now();
    for (size_t r = 0; r < rounds; ++r) {
      for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        DUP_CHECK_OK(net::wire::Parse(flat.data() + offsets[i],
                                      offsets[i + 1] - offsets[i], &decoded));
        acc += decoded.hops;
      }
    }
    out.parse_ns = NsPerOp(start, rounds * frames.size());
  }
  g_sink = acc;
  return out;
}

}  // namespace perfbench
