#ifndef DUP_PERFBENCH_PROBES_H_
#define DUP_PERFBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.h"

namespace perfbench {

/// Single-layer probes: each drives one layer's public functions on its
/// own, at the workload's network size N and Zipf skew theta, with the
/// node ids drawn from that Zipf law so the working set matches the run.
struct ProbeResults {
  double tree_build_s = 0.0;          ///< topo::TreeGenerator::Generate.
  double zipf_sample_ns = 0.0;        ///< ZipfNodeSelector::Sample.
  double registry_slot_of_ns = 0.0;   ///< core::NodeRegistry::SlotOf.
  double tracker_record_ns = 0.0;     ///< AccessTracker::RecordStamp.
  double pair_clock_advance_ns = 0.0; ///< net::PairClock::Advance.
  double queue_hold_ns = 0.0;         ///< EventQueue pop + push at a depth.
  double send_deliver_ns = 0.0;       ///< OverlayNetwork Send -> deliver.
  double recorder_ns = 0.0;           ///< One metrics::Recorder call.
};

struct ProbeParams {
  size_t nodes = 0;
  int max_degree = 4;
  double theta = 0.8;
  uint32_t threshold_c = 6;
  double hop_latency = 0.1;
  /// Queue depth for the hold probe (the traced run's sim.pending_max).
  size_t pending = 1;
  uint64_t seed = 1;
};

ProbeResults RunProbes(const ProbeParams& params);

/// Codec replay over frames captured in a run: mean ns per
/// net::wire::Serialize and per net::wire::Parse.
struct CodecResults {
  double serialize_ns = 0.0;
  double parse_ns = 0.0;
};
CodecResults ReplayCodec(const std::vector<dupnet::net::Message>& frames);

}  // namespace perfbench

#endif  // DUP_PERFBENCH_PROBES_H_
