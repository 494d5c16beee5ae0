// Top-level NoC: routers, network interfaces, channels, fault injection and
// power hooks, advanced one cycle at a time.
//
// Update discipline: within one `step()` every router and NI first *receives*
// (popping only signals that matured on the delay-line channels), then every
// router and NI *executes* (pushing signals that mature next cycle). The
// visible state of a cycle is therefore independent of iteration order —
// which is what licenses running each phase data-parallel across contiguous
// node shards (`set_sim_threads`). All cross-shard mutations are staged in
// per-shard StepEffects buffers and merged after the phase barrier in
// canonical node order, so results are bit-identical for any thread count
// (see DESIGN.md, "Parallel stepping & deterministic merge").
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "fault/hard_faults.h"
#include "fault/injector.h"
#include "fault/varius.h"
#include "noc/channel.h"
#include "noc/completion.h"
#include "noc/ni.h"
#include "noc/node_hot.h"
#include "noc/noc_config.h"
#include "noc/router.h"
#include "noc/step_effects.h"
#include "noc/topology.h"
#include "power/orion_lite.h"
#include "telemetry/telemetry.h"

namespace rlftnoc {

/// Network-wide roll-up metrics for one simulation phase.
struct NetworkMetrics {
  StatAccumulator packet_latency;  ///< end-to-end cycles, successful packets
  /// Latency distribution for tail percentiles (bucketed 0..20K cycles;
  /// beyond that the overflow bucket still keeps quantiles monotone).
  Histogram latency_hist{0.0, 20000.0, 2000};
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packet_e2e_retransmissions = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t retx_flits_e2e = 0;   ///< flits re-sent source->dest (CRC path)
  std::uint64_t retx_flits_hop = 0;   ///< link-level NACK-triggered re-sends
  std::uint64_t dup_flits = 0;        ///< mode-2 proactive duplicates
  std::uint64_t crc_packet_failures = 0;
  Cycle last_delivery_cycle = 0;

  /// The paper's "retransmission traffic": every flit transmission beyond
  /// the first copy, whatever mechanism caused it.
  std::uint64_t total_retransmitted_flits() const noexcept {
    return retx_flits_e2e + retx_flits_hop + dup_flits;
  }

  void reset() { *this = NetworkMetrics{}; }
};

/// Per-link timing-error probabilities, refreshed by the control layer each
/// time-step from the thermal + VARIUS models.
struct LinkErrorProb {
  double normal = 0.0;   ///< single-cycle transfer (modes 0-2)
  double relaxed = 0.0;  ///< stretched mode-3 transfer
};

class Network {
 public:
  Network(const NocConfig& cfg, std::uint64_t seed, VariusParams varius = {},
          PowerParams power = {});

  // Non-copyable: routers/NIs hold back-pointers.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advances the whole network by one cycle.
  void step();

  Cycle now() const noexcept { return now_; }
  const NocConfig& config() const noexcept { return cfg_; }
  const Topology& topology() const noexcept { return topo_; }

  Router& router(NodeId n) {
    RLFTNOC_CHECK(valid_node(n), "router(%d): out of range", n);
    return *routers_[static_cast<std::size_t>(n)];
  }
  const Router& router(NodeId n) const {
    RLFTNOC_CHECK(valid_node(n), "router(%d): out of range", n);
    return *routers_[static_cast<std::size_t>(n)];
  }
  NetworkInterface& ni(NodeId n) {
    RLFTNOC_CHECK(valid_node(n), "ni(%d): out of range", n);
    return *nis_[static_cast<std::size_t>(n)];
  }
  const NetworkInterface& ni(NodeId n) const {
    RLFTNOC_CHECK(valid_node(n), "ni(%d): out of range", n);
    return *nis_[static_cast<std::size_t>(n)];
  }

  PowerModel& power() noexcept { return power_; }
  const PowerModel& power() const noexcept { return power_; }
  NetworkMetrics& metrics() noexcept { return metrics_; }
  const NetworkMetrics& metrics() const noexcept { return metrics_; }
  const VariusModel& varius() const noexcept { return varius_; }

  /// Outgoing inter-router channel of `node` through mesh port `p`;
  /// nullptr at a mesh edge, on a killed link or for the Local port.
  ChannelPair* out_channel(NodeId node, Port p) {
    if (p == Port::kLocal) return nullptr;
    const std::size_t idx = link_index(node, p);
    return out_alive_[idx] ? &out_ch_[idx] : nullptr;
  }
  /// Incoming inter-router channel at `node`'s input port `p` (the
  /// neighbour's outgoing channel); nullptr at a mesh edge, on a killed
  /// link or for the Local port.
  ChannelPair* in_channel(NodeId node, Port p) {
    if (p == Port::kLocal) return nullptr;
    const std::size_t idx = in_lane_idx_[in_lane_slot(node, port_index(p))];
    return out_alive_[idx] ? &out_ch_[idx] : nullptr;
  }
  /// NI -> router injection channel of `node`.
  ChannelPair& inj_channel(NodeId node) {
    RLFTNOC_CHECK(valid_node(node), "inj_channel(%d): out of range", node);
    return inj_[static_cast<std::size_t>(node)];
  }
  /// Router -> NI ejection channel of `node`.
  ChannelPair& ej_channel(NodeId node) {
    RLFTNOC_CHECK(valid_node(node), "ej_channel(%d): out of range", node);
    return ej_[static_cast<std::size_t>(node)];
  }

  /// Lane-occupancy block of `node`: one byte per lane the node reads, each
  /// equal to `!lane.empty()` (layout in noc/node_hot.h).
  const LaneOcc& lane_occ(NodeId node) const noexcept {
    return lane_occ_[static_cast<std::size_t>(node)];
  }
  /// Unchecked lane access for the receive phase, by mesh port index. Only
  /// meaningful while the matching occupancy byte is set: a set byte
  /// implies a live channel (absent and killed lanes stay empty).
  ChannelPair& in_lane(NodeId node, std::size_t mesh_pi) noexcept {
    return out_ch_[in_lane_idx_[in_lane_slot(node, mesh_pi)]];
  }
  ChannelPair& out_lane(NodeId node, std::size_t mesh_pi) noexcept {
    return out_ch_[link_index(node, kMeshPorts[mesh_pi])];
  }

  /// Sets the error probabilities of the link leaving `node` through `p`.
  void set_link_error_prob(NodeId node, Port p, LinkErrorProb prob);
  LinkErrorProb link_error_prob(NodeId node, Port p) const;

  /// Applies transient faults to a flit entering the wire at (`node`, `p`).
  /// No-op on Local links (NI wiring is short and assumed robust).
  /// `stage` is the caller's shard-local trace sink (routers transmitting
  /// inside a parallel phase); null falls back to the global tracer, which
  /// is only safe from serial context.
  void corrupt_on_wire(NodeId node, Port p, Flit& flit, bool relaxed,
                       TraceStage* stage = nullptr);

  /// Records a power event at `node`'s router.
  void record_power(NodeId node, PowerEvent e, std::uint64_t n = 1) {
    power_.record(node, e, n);
  }

  /// Schedules delivery of an end-to-end ACK / retransmission request back
  /// to the source NI of `packet` at cycle `at`.
  void schedule_e2e_response(Cycle at, NodeId src, PacketId id, bool ok);

  /// True when no packet, flit, credit, ACK or timer is in flight anywhere.
  bool drained() const;

  /// Registers hard faults (dead links / routers), validating nodes and
  /// ports against the structural topology. Faults with at_cycle <= now are
  /// applied immediately; later ones fire at the top of their step().
  /// Throws std::invalid_argument for out-of-range nodes, Local/edge-port
  /// links, or a westfirst configuration (its turn model cannot route
  /// around faults deadlock-free — see noc/routing.h).
  void schedule_hard_faults(const std::vector<HardFault>& faults);

  /// True when any hard fault was scheduled (applied or still pending).
  bool has_hard_faults() const noexcept { return !pending_faults_.empty(); }
  std::size_t hard_faults_applied() const noexcept { return faults_applied_; }
  /// Flits destroyed on dead wires / dead-router NI lanes (the conservation
  /// audit counts these alongside the routers' fault_drops).
  std::uint64_t wire_kill_drops() const noexcept { return wire_kill_drops_; }

  /// Transient-fault injector of the link leaving `node` through `p`;
  /// nullptr for absent or killed links. Tests inspect droop bookkeeping.
  const LinkFaultInjector* link_injector(NodeId node, Port p) const {
    if (p == Port::kLocal) return nullptr;
    return injectors_[link_index(node, p)].get();
  }

  /// Idle-skip diagnostics: how many per-node phase visits step() elided
  /// because the node was provably quiescent (see step() for the argument).
  std::uint64_t router_steps_skipped() const noexcept { return router_steps_skipped_; }
  std::uint64_t ni_steps_skipped() const noexcept { return ni_steps_skipped_; }

  /// RNG stream for payload generation (shared by make_packet callers that
  /// don't carry their own stream).
  Rng& payload_rng() noexcept { return payload_rng_; }

  /// Optional event tracer (telemetry). Null when tracing is off; every
  /// instrumentation site goes through RLFTNOC_TRACE, which null-checks (and
  /// compiles away entirely under RLFTNOC_TELEMETRY_DISABLED). Routers and
  /// NIs trace through per-shard staging sinks instead, re-bound here.
  EventTracer* tracer() const noexcept { return tracer_; }
  void set_tracer(EventTracer* t) noexcept {
    tracer_ = t;
    bind_effect_sinks();
  }

  /// Optional packet-resolution feed (see noc/completion.h). Null when no
  /// consumer is attached. All notification sites are serial — the e2e drain
  /// at the top of step() and the hard-fault teardown sweeps — so listeners
  /// observe one canonical order for any sim_threads value.
  PacketResolutionListener* resolution_listener() const noexcept {
    return resolution_listener_;
  }
  void set_resolution_listener(PacketResolutionListener* l) noexcept {
    resolution_listener_ = l;
  }

  /// Credits a delivered packet's end-to-end latency to every router on its
  /// route under the active routing policy (X-Y in the paper), which is the
  /// paper's per-router "E2E_Latency(i)" reward term.
  void add_path_latency(NodeId src, NodeId dst, double latency_cycles);

  /// Window accumulator of latencies credited to `node` (reset each control
  /// time-step by the fault-tolerant controller).
  StatAccumulator& router_latency_window(NodeId node) {
    RLFTNOC_CHECK(valid_node(node), "router_latency_window(%d): out of range",
                  node);
    return latency_window_[static_cast<std::size_t>(node)];
  }

  /// Configures deterministic intra-run parallelism for step(): the mesh is
  /// partitioned into min(threads, nodes) contiguous shards and each phase
  /// runs data-parallel across them, with cross-shard effects staged and
  /// merged in canonical node order — results are bit-identical for any
  /// value. `threads` <= 1 steps serially on the calling thread (still
  /// through the same staged path); 0 means one thread per hardware thread.
  /// Composes with campaign-level `jobs`: total worker threads is the
  /// product, so budget jobs x sim_threads against the machine.
  void set_sim_threads(unsigned threads);
  unsigned sim_threads() const noexcept { return sim_threads_; }
  /// Shards the mesh is currently partitioned into (1 when serial).
  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Parallel stepping diagnostics: cycles stepped through the pooled
  /// (multi-threaded) path vs inline, and total staged effects merged.
  /// Deterministic — staging happens identically on both paths.
  std::uint64_t pooled_phase_dispatches() const noexcept {
    return pooled_phase_dispatches_;
  }
  std::uint64_t staged_effects_merged() const noexcept {
    return staged_effects_merged_;
  }

  /// Fused-stepper diagnostics. phase_dispatches / merges_run /
  /// lookahead_cycles_slept are thread-count-invariant (functions of the
  /// simulated traffic alone — see DESIGN.md §5) and exported as net.*
  /// telemetry; lookahead_shard_sleeps depends on the shard partition and
  /// is deliberately NOT exported (matching pooled_phase_dispatches).
  /// Per cycle the fused stepper issues at most 2 phase dispatches
  /// (receive+flags, execute) and 1 merge; fully-slept cycles issue none.
  std::uint64_t phase_dispatches() const noexcept { return phase_dispatches_; }
  std::uint64_t merges_run() const noexcept { return merges_run_; }
  /// Cycles in which every shard slept (whole-mesh quiescence lookahead).
  std::uint64_t lookahead_cycles_slept() const noexcept {
    return lookahead_cycles_slept_;
  }
  /// Shard-cycles slept (each sleeping shard counts once per cycle).
  std::uint64_t lookahead_shard_sleeps() const noexcept {
    return lookahead_shard_sleeps_;
  }

  /// Wakes the shard owning `node` for the current cycle. Serial context
  /// only — called whenever state a sleeping shard would otherwise never
  /// re-inspect is mutated from outside the node's own phase visits
  /// (packet enqueue, e2e response delivery, test-level pokes).
  void wake_node(NodeId node) noexcept {
    if (!valid_node(node)) return;
    const std::size_t s = node_shard_[static_cast<std::size_t>(node)];
    if (wake_[s] > now_) wake_[s] = now_;
    refresh_node_hot(node);
  }
  /// Wakes every shard for the current cycle (hard-fault teardown, rebinds).
  void wake_all() noexcept {
    for (Cycle& w : wake_) w = now_ < w ? now_ : w;
  }

  /// Optional per-phase wall-time breakdown (bench_scaling's v2 schema).
  /// Costs two clock reads per dispatch when enabled; off by default and
  /// never a simulation input.
  struct PhaseTimings {
    double serial_seconds = 0.0;   ///< faults + e2e drain + wake bookkeeping
    double receive_seconds = 0.0;  ///< fused flags+receive dispatch
    double execute_seconds = 0.0;  ///< execute dispatch (incl. hot refresh)
    double merge_seconds = 0.0;    ///< single canonical merge
  };
  void set_phase_timing(bool on) noexcept { time_phases_ = on; }
  const PhaseTimings& phase_timings() const noexcept { return phase_timings_; }

 private:
  /// The invariant auditor walks every channel delay line (see noc/audit.h).
  friend class NetworkAuditor;

  struct E2eEvent {
    Cycle at;
    NodeId src;
    PacketId id;
    bool ok;
    /// Min-heap on `at`; seq breaks ties so delivery order is deterministic.
    std::uint64_t seq;
    friend bool operator>(const E2eEvent& a, const E2eEvent& b) noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  std::size_t link_index(NodeId node, Port p) const noexcept {
    return static_cast<std::size_t>(node) * kNumPorts + port_index(p);
  }

  std::size_t in_lane_slot(NodeId node, std::size_t mesh_pi) const noexcept {
    return static_cast<std::size_t>(node) * kMeshPorts.size() + mesh_pi;
  }

  bool valid_node(NodeId n) const noexcept {
    return n >= 0 && static_cast<std::size_t>(n) < routers_.size();
  }

  bool router_has_work(NodeId node) const;
  bool ni_has_work(NodeId node) const;

  /// Contiguous node range [lo, hi) owned by one shard.
  struct Shard {
    NodeId lo = 0;
    NodeId hi = 0;
  };

  /// (Re)partitions the mesh into `shards` contiguous node ranges and binds
  /// every router/NI to its shard's StepEffects + trace stage.
  void build_shards(std::size_t shards);
  /// Re-binds the per-node trace sinks (after set_tracer / build_shards).
  void bind_effect_sinks();

  /// Runs f(shard_index) for every shard — pooled when `pooled`, else
  /// inline in ascending shard order. The choice cannot affect results:
  /// both orders produce the same per-shard staging buffers.
  template <typename F>
  void for_each_shard(bool pooled, F&& f);

  /// Applies every shard's staged effects in canonical order (shard-major =
  /// ascending node order, matching the serial stepper). See step().
  void merge_effects(Cycle now);

  // -- hard-fault application (serial, between steps; see DESIGN.md) --
  void apply_due_hard_faults();
  void kill_link_internal(NodeId node, Port p, std::vector<LostFlit>& lost);
  void kill_router_internal(NodeId node, std::vector<LostFlit>& lost);
  /// Chases a severed worm's downstream allocation chain starting at the
  /// router that reported it, purging one input VC per hop.
  void purge_worm_chain(Cycle now, NodeId from, Router::SeveredWorm worm,
                        std::vector<LostFlit>& lost);
  /// Rebuilds routes and runs packet-level repair over the lost-flit list.
  void finish_fault_application(std::vector<LostFlit>& lost);

  NocConfig cfg_;
  Topology topo_;
  Cycle now_ = 0;

  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  /// out_ch_[node*5+port]: inter-router channels, by value and never
  /// reallocated, so lanes keep their lane_occ_ bindings. Slots at mesh
  /// edges / Local / killed links stay default-empty forever (out_alive_
  /// gates the accessors); their lanes are cleared on kill, so a set
  /// occupancy byte always names a live lane.
  std::vector<ChannelPair> out_ch_;
  std::vector<std::uint8_t> out_alive_;  ///< per link_index: channel exists
  std::vector<ChannelPair> inj_;
  std::vector<ChannelPair> ej_;

  VariusModel varius_;
  PowerModel power_;
  NetworkMetrics metrics_;

  std::vector<LinkErrorProb> link_prob_;
  /// Precompiled Bernoulli gates mirroring link_prob_ (normal / relaxed),
  /// refreshed by set_link_error_prob so the per-flit error decision in
  /// corrupt_on_wire is one integer compare (Rng::bernoulli_gate). A zero
  /// probability compiles to kGateNever, which short-circuits draw-free.
  struct LinkGate {
    std::uint64_t normal = Rng::kGateNever;
    std::uint64_t relaxed = Rng::kGateNever;
  };
  std::vector<LinkGate> link_gate_;
  std::vector<std::unique_ptr<LinkFaultInjector>> injectors_;

  std::priority_queue<E2eEvent, std::vector<E2eEvent>, std::greater<>> e2e_events_;
  std::uint64_t e2e_seq_ = 0;

  /// Scheduled hard faults, sorted by at_cycle from next_fault_ on;
  /// [0, next_fault_) have been applied.
  std::vector<HardFault> pending_faults_;
  std::size_t next_fault_ = 0;
  std::size_t faults_applied_ = 0;
  std::uint64_t wire_kill_drops_ = 0;

  std::vector<StatAccumulator> latency_window_;

  EventTracer* tracer_ = nullptr;
  PacketResolutionListener* resolution_listener_ = nullptr;

  std::uint64_t router_steps_skipped_ = 0;
  std::uint64_t ni_steps_skipped_ = 0;

  // -- parallel stepping (see step() and DESIGN.md) --
  unsigned sim_threads_ = 1;
  std::vector<Shard> shards_;        ///< contiguous, ascending, cover [0, n)
  std::vector<StepEffects> fx_;      ///< one staging buffer per shard
  std::unique_ptr<PhasePool> pool_;  ///< null when sim_threads_ <= 1
  std::uint64_t pooled_phase_dispatches_ = 0;
  std::uint64_t staged_effects_merged_ = 0;
  std::uint64_t phase_dispatches_ = 0;
  std::uint64_t merges_run_ = 0;

  // -- SoA hot state + cross-cycle quiescence lookahead (see step()) --
  /// Sentinel wake stamp for a shard with no scheduled wake-up.
  static constexpr Cycle kWakeNever = ~Cycle{0};
  /// Per-node packed hot byte: router quiescence + NI injection idleness
  /// (see noc/node_hot.h).
  std::vector<std::uint8_t> node_hot_;
  /// Per-node lane-occupancy blocks, bound to their lanes at construction
  /// and kept exact by DelayLine (see noc/node_hot.h).
  std::vector<LaneOcc> lane_occ_;
  /// node_shard_[node]: owning shard index (rebuilt with the partition).
  std::vector<std::uint32_t> node_shard_;
  /// in_lane_idx_[node*4+mesh_port]: link_index of the neighbour's outgoing
  /// channel feeding this input port; absent neighbours alias the node's own
  /// (never-alive, always-empty) Local slot.
  std::vector<std::uint32_t> in_lane_idx_;
  /// wake_[s] <= now_ means shard s must be visited this cycle; kWakeNever
  /// means it sleeps until an external event lowers the stamp.
  std::vector<Cycle> wake_;
  /// halo_[s]: shards owning structural neighbours of s's nodes (incl. s).
  /// A shard that executed any busy node wakes its halo for the next cycle,
  /// which covers every cross-shard push (flits/credits in execute, staged
  /// ACKs at merge — all target structural neighbours).
  std::vector<std::vector<std::uint32_t>> halo_;
  /// Busy-node worklists, rebuilt each cycle by every awake shard's flag
  /// scan in dispatch A (see step()). Shard s owns the slice [lo, hi) of
  /// each array — its own node range — and appends node ids there in
  /// ascending order: routers with work, NIs with work, and their union.
  /// Receive, execute and the hot-byte refresh visit only these entries.
  /// Sized with the partition (build_shards); nothing allocates per cycle.
  std::vector<NodeId> busy_router_;
  std::vector<NodeId> busy_ni_;
  std::vector<NodeId> busy_any_;
  /// Worklist lengths of one shard for the current cycle (meaningful only
  /// while the shard is awake). One cache line per shard: pooled shards
  /// write their own counts concurrently.
  struct alignas(64) ShardWork {
    std::uint32_t routers = 0;
    std::uint32_t nis = 0;
    std::uint32_t any = 0;
    /// Router+NI visits this cycle: the halo-wake and pooling signal.
    std::uint32_t visits() const noexcept { return routers + nis; }
  };
  std::vector<ShardWork> work_;
  std::uint64_t lookahead_cycles_slept_ = 0;
  std::uint64_t lookahead_shard_sleeps_ = 0;
  /// Previous cycle's total busy visits — decides whether dispatch A runs
  /// pooled before this cycle's flags exist. Deterministic (derived only
  /// from simulation state), so the pooling choice is too.
  std::uint64_t prev_busy_ = 0;

  /// Refreshes node_hot_[node] from the node's current settled state.
  void refresh_node_hot(NodeId node) noexcept;
  void refresh_all_node_hot() noexcept;

  bool time_phases_ = false;
  PhaseTimings phase_timings_;

  Rng payload_rng_;
};

}  // namespace rlftnoc
