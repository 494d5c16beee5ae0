// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#include "noc/router.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "coding/secded.h"
#include "noc/network.h"
#include "noc/routing.h"

namespace rlftnoc {

namespace {
// Mesh dimension a port travels along (dateline classes are per-dimension).
int port_dim(Port p) noexcept {
  return (p == Port::kNorth || p == Port::kSouth) ? 1 : 0;
}
}  // namespace

Router::Router(NodeId id, const NocConfig* cfg, Network* net)
    : id_(id), cfg_(cfg), net_(net), dateline_(cfg->dateline_vcs()),
      vcs_(cfg->vcs_per_port) {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    input_[p].resize(static_cast<std::size_t>(cfg_->vcs_per_port));
    auto& op = output_[p];
    op.vcs.resize(static_cast<std::size_t>(cfg_->vcs_per_port));
    // Credits mirror the downstream buffer: router input VCs for mesh ports,
    // the deeper NI ejection buffer for the Local port.
    const int depth = (static_cast<Port>(p) == Port::kLocal) ? cfg_->local_vc_depth
                                                             : cfg_->vc_depth;
    for (auto& vc : op.vcs) vc.credits = depth;
    // Pre-size every hot queue to its protocol bound so the per-cycle
    // datapath never allocates: input FIFOs hold at most vc_depth flits and
    // the ARQ structures at most retention_depth entries.
    for (auto& iv : input_[p]) iv.fifo.reserve(static_cast<std::size_t>(cfg_->vc_depth));
    op.retention.reset(static_cast<std::size_t>(cfg_->retention_depth));
    op.retx_queue.reserve(static_cast<std::size_t>(cfg_->retention_depth));
    op.dup_queue.reserve(static_cast<std::size_t>(cfg_->retention_depth));
    // Reset value of the packed per-output words: every VC unallocated and
    // fully credited (depth >= 1 is enforced by NocConfig::validate).
    free_vc_mask_[p] = port_bits(0);
    credit_mask_[p] = port_bits(0);
  }
}

// --------------------------------------------------------------------------
// Phase A: receive
// --------------------------------------------------------------------------

void Router::receive(Cycle now) {
  // Drains only lanes whose occupancy byte is set (an empty lane yields
  // nothing), in the fixed order: mesh flits N,S,E,W, injection flits, then
  // per mesh port credits and ACKs, then ejection credits. Flits are handled
  // in their lane slot and dropped afterwards; the drop touches only that
  // lane, which nothing in handle_incoming_flit reads or writes, so doing it
  // after (rather than before) the handling changes no effect.
  const std::array<std::uint8_t, node_hot::kLanesPerNode>& occ =
      net_->lane_occ(id_).b;
  for (std::size_t pi = 0; pi < kMeshPorts.size(); ++pi) {
    if (occ[node_hot::kInFlit + pi] == 0) continue;
    DelayLine<Flit>& lane = net_->in_lane(id_, pi).flits;
    while (Flit* f = lane.peek(now)) {
      handle_incoming_flit(now, kMeshPorts[pi], *f);
      lane.drop_front();
    }
  }
  if (occ[node_hot::kInjFlit] != 0) {
    DelayLine<Flit>& lane = net_->inj_channel(id_).flits;
    while (Flit* f = lane.peek(now)) {
      handle_incoming_flit(now, Port::kLocal, *f);
      lane.drop_front();
    }
  }

  for (std::size_t pi = 0; pi < kMeshPorts.size(); ++pi) {
    if (occ[node_hot::kOutCredit + pi] != 0) {
      DelayLine<Credit>& lane = net_->out_lane(id_, pi).credits;
      while (auto c = lane.pop(now)) {
        const auto v = static_cast<std::size_t>(c->vc);
        mask_credit(pi, v, ++output_[pi].vcs[v].credits);
      }
    }
    if (occ[node_hot::kOutAck + pi] != 0) {
      DelayLine<AckMsg>& lane = net_->out_lane(id_, pi).acks;
      while (auto a = lane.pop(now)) handle_ack(kMeshPorts[pi], *a);
    }
  }
  if (occ[node_hot::kEjCredit] != 0) {
    DelayLine<Credit>& lane = net_->ej_channel(id_).credits;
    const std::size_t local_pi = port_index(Port::kLocal);
    while (auto c = lane.pop(now)) {
      const auto v = static_cast<std::size_t>(c->vc);
      mask_credit(local_pi, v, ++output_[local_pi].vcs[v].credits);
    }
  }
}

void Router::handle_incoming_flit(Cycle now, Port in_port, Flit& flit) {
  const std::size_t pi = port_index(in_port);
  InputArq& arq = input_arq_[pi];

  if (in_port == Port::kLocal) {
    // NI injection wire: short, robust, outside the link-layer ARQ.
    accept_flit(in_port, std::move(flit));
    return;
  }

  if (!flit.ecc_valid) {
    // Unprotected link (mode 0 upstream): accept whatever arrives — the
    // destination CRC is the only safety net — but keep the sequence stream
    // in sync for later protected flits. The sender never emits unprotected
    // flits while a retransmission gap is open, so this is always in-order.
    arq.expected_lsn = flit.lsn + 1;
    accept_flit(in_port, std::move(flit));
    return;
  }

  const FlitId fid = flit.id();
  if (flit.lsn < arq.expected_lsn) {
    // Duplicate of something already accepted (mode-2 pre-retransmission
    // behind a successful original, or a stale resend): confirm and drop.
    ++counters_.dup_discards;
    send_link_response(now, in_port, fid, flit.vc, /*nack=*/false);
    return;
  }
  if (flit.lsn > arq.expected_lsn) {
    // Out of order behind a rejected flit: go-back-N — NACK so the sender
    // replays it after the gap is filled. No decode needed.
    ++counters_.nacks_sent[pi];
    RLFTNOC_TRACE(trace_, TraceEventKind::kNackSent, now, id_,
                  static_cast<std::int8_t>(pi), /*out-of-order*/ 0);
    send_link_response(now, in_port, fid, flit.vc, /*nack=*/true);
    return;
  }

  net_->record_power(id_, PowerEvent::kEccDecode);
  const FlitEccDecode dec = decode_flit_ecc(default_secded(), flit.payload, flit.ecc);
  if (dec.status == SecdedStatus::kUncorrectable) {
    // Reject: NACK upstream and wait for the resend (or the mode-2 dup).
    ++counters_.ecc_uncorrectable;
    ++counters_.nacks_sent[pi];
    RLFTNOC_TRACE(trace_, TraceEventKind::kNackSent, now, id_,
                  static_cast<std::int8_t>(pi), /*uncorrectable*/ 1);
    send_link_response(now, in_port, fid, flit.vc, /*nack=*/true);
    return;
  }

  if (dec.status == SecdedStatus::kCorrected) ++counters_.ecc_corrections;
  flit.payload = dec.payload;
  flit.ecc = dec.ecc;
  send_link_response(now, in_port, fid, flit.vc, /*nack=*/false);
  arq.expected_lsn = flit.lsn + 1;
  flit.ecc_valid = false;  // consumed at this hop; re-encoded if the next link is protected
  accept_flit(in_port, std::move(flit));
}

void Router::accept_flit(Port in_port, Flit&& flit) {
  const std::size_t pi = port_index(in_port);
  InputVc& vc = input_[pi][static_cast<std::size_t>(flit.vc)];
  // Credits guarantee buffer space; overflow here means a flow-control bug.
  RLFTNOC_CHECK(static_cast<int>(vc.fifo.size()) < cfg_->vc_depth,
                "router %d port %s vc %d: input VC overflow (depth %d)",
                id_, port_name(in_port), flit.vc, cfg_->vc_depth);
  ++counters_.flits_in[pi];
  net_->record_power(id_, PowerEvent::kBufferWrite);
  mask_mark_nonempty(ivc_bit(pi, static_cast<std::size_t>(flit.vc)));
  vc.fifo.push_back(std::move(flit));
  ++buffered_;
}

void Router::send_link_response(Cycle /*now*/, Port in_port, FlitId id, VcId vc,
                                bool nack) {
  ChannelPair* ch = net_->in_channel(id_, in_port);
  // ECC traffic only arrives on mesh ports, which always have a back channel.
  RLFTNOC_CHECK(ch != nullptr, "router %d: link response through port %s",
                id_, port_name(in_port));
  // The upstream router pops this very ack lane in the same receive phase,
  // so the push is staged and applied after the barrier. Same-cycle pushes
  // mature at now+1 regardless, so the deferral is invisible.
  fx_->acks.push_back(StepEffects::StagedAck{&ch->acks, AckMsg{id, vc, nack}});
  net_->record_power(id_, PowerEvent::kAckFlit);
}

void Router::handle_ack(Port out_port, const AckMsg& ack) {
  const std::size_t pi = port_index(out_port);
  ArqRetention* r = find_retention(out_port, ack.flit_id);
  if (r == nullptr) return;  // response for an entry already freed

  if (!ack.nack) {
    ++counters_.acks_received[pi];
    erase_retention(out_port, ack.flit_id);
    drop_queued_copies(out_port, ack.flit_id);
    return;
  }

  ++counters_.nacks_received[pi];
  r->unresolved = std::max(0, r->unresolved - 1);
  OutputPort& op = output_[pi];
  const bool dup_scheduled = op.dup_queue.any_of(
      [&](const OutputPort::PendingDup& d) { return d.id == ack.flit_id; });
  if (r->unresolved == 0 && !dup_scheduled && !r->resend_queued) {
    op.retx_queue.push_back(ack.flit_id);
    r->resend_queued = true;
  }
}

// --------------------------------------------------------------------------
// Phase B: execute (SA -> VA -> RC evaluated in reverse pipeline order)
// --------------------------------------------------------------------------

void Router::execute(Cycle now) {
  stage_link_resend(now);
  stage_switch_allocation(now);
  stage_vc_allocation();
  stage_route_computation(now);
}

void Router::stage_link_resend(Cycle now) {
  for (const Port p : kMeshPorts) {
    const std::size_t pi = port_index(p);
    OutputPort& op = output_[pi];
    // Nothing queued is the common case; the body below is a no-op then.
    if (op.retx_queue.empty() && op.dup_queue.empty()) continue;
    if (net_->out_channel(id_, p) == nullptr) continue;
    if (now < op.busy_until) continue;

    // Priority 1: NACK-triggered resends.
    bool sent = false;
    while (!op.retx_queue.empty()) {
      const FlitId fid = op.retx_queue.front();
      ArqRetention* r = find_retention(p, fid);
      op.retx_queue.pop_front();
      if (r == nullptr) continue;  // freed by a racing ACK
      r->resend_queued = false;
      Flit copy = r->clean;
      copy.hop_retransmission = true;
      ++counters_.hop_retransmissions;
      ++fx_->retx_flits_hop;
      RLFTNOC_TRACE(trace_, TraceEventKind::kHopRetx, now, id_,
                    static_cast<std::int8_t>(pi),
                    static_cast<std::int32_t>(copy.seq));
      net_->record_power(id_, PowerEvent::kRetransmission);
      transmit(now, p, std::move(copy), /*is_copy=*/true);
      sent = true;
      break;
    }
    if (sent) continue;

    // Priority 2: mode-2 proactive duplicates whose gap has elapsed.
    while (!op.dup_queue.empty() && op.dup_queue.front().earliest <= now) {
      const FlitId fid = op.dup_queue.front().id;
      op.dup_queue.pop_front();
      ArqRetention* r = find_retention(p, fid);
      if (r == nullptr) continue;  // original already ACKed
      Flit copy = r->clean;
      copy.hop_retransmission = true;
      ++counters_.preretx_duplicates;
      ++fx_->dup_flits;
      RLFTNOC_TRACE(trace_, TraceEventKind::kPreRetxDup, now, id_,
                    static_cast<std::int8_t>(pi),
                    static_cast<std::int32_t>(copy.seq));
      transmit(now, p, std::move(copy), /*is_copy=*/true);
      break;
    }
  }
}

void Router::stage_switch_allocation(Cycle now) {
  const int vcs = vcs_;
  const int candidates = static_cast<int>(kNumPorts) * vcs;
  // Input ports that already sent this cycle, as input-VC-word bit groups so
  // a single AND removes every VC of a used port from the request word.
  std::uint64_t used_ports = 0;

  for (const Port out : kAllPorts) {
    const std::size_t pi = port_index(out);
    OutputPort& op = output_[pi];
    // Request word: kActive worms headed here whose FIFO holds a flit. The
    // per-candidate credit test stays in the loop (it depends on the worm's
    // granted output VC, not on the input VC bit).
    const std::uint64_t req = active_to_[pi] & occ_mask_ & ~used_ports;
    if (req == 0) continue;
    if (now < op.busy_until) continue;
    const bool mesh = out != Port::kLocal;
    if (mesh && net_->out_channel(id_, out) == nullptr) continue;
    // A protected link must be able to retain a copy of what it sends.
    if (mesh && ecc_enabled() &&
        static_cast<int>(op.retention.size()) >= cfg_->retention_depth)
      continue;
    // After switching to mode 0, the port first drains its ARQ window:
    // sending unprotected flits past an open retransmission gap would let
    // the stream arrive out of order.
    if (mesh && !ecc_enabled() &&
        !(op.retention.empty() && op.retx_queue.empty() && op.dup_queue.empty()))
      continue;

    // Round-robin arbitration over the set bits only: visit bits >= sa_rr
    // ascending, then wrap to bits < sa_rr — the exact candidate order of
    // the old modular scan, skipping empty slots for free.
    const unsigned start = static_cast<unsigned>(op.sa_rr);
    std::uint64_t w = (req >> start) << start;  // bits >= sa_rr
    bool wrapped = false;
    while (true) {
      if (w == 0) {
        if (wrapped) break;
        wrapped = true;
        w = req & (bit64(start) - 1);  // bits < sa_rr
        continue;
      }
      const int idx = std::countr_zero(w);
      w &= w - 1;
      const auto in_pi = static_cast<std::size_t>(idx / vcs);
      const auto v = static_cast<std::size_t>(idx % vcs);
      InputVc& iv = input_[in_pi][v];
      RLFTNOC_CHECK(iv.state == InputVc::State::kActive && !iv.fifo.empty() &&
                        iv.out_port == out,
                    "router %d: SA request word out of sync at bit %d", id_, idx);
      OutputVc& ovc = op.vcs[static_cast<std::size_t>(iv.out_vc)];
      if (ovc.credits <= 0) continue;

      // Grant: read the flit, cross the switch, return the buffer credit.
      // The FIFO's front flit moves straight onto the wire and is popped
      // afterwards. The pop (this VC's FIFO, buffered_, occ_mask_) and
      // transmit (the output port, the outgoing lane) touch disjoint state,
      // as do the upstream credit push and the downstream flit push, and the
      // power events are order-free counters — so this order is
      // observationally the same as popping first.
      Flit& flit = iv.fifo.front();
      net_->record_power(id_, PowerEvent::kBufferRead);
      net_->record_power(id_, PowerEvent::kArbitration);
      net_->record_power(id_, PowerEvent::kCrossbar);

      const auto in_port = static_cast<Port>(in_pi);
      if (in_port == Port::kLocal) {
        net_->inj_channel(id_).credits.push(now, Credit{static_cast<VcId>(v)});
      } else if (ChannelPair* ch = net_->in_channel(id_, in_port)) {
        ch->credits.push(now, Credit{static_cast<VcId>(v)});
      }

      mask_credit(pi, static_cast<std::size_t>(iv.out_vc), --ovc.credits);
      flit.vc = static_cast<std::int8_t>(iv.out_vc);
      const bool tail = flit.is_tail();
      transmit(now, out, std::move(flit), /*is_copy=*/false);
      iv.fifo.pop_front();
      --buffered_;
      mask_update_occupancy(static_cast<unsigned>(idx), iv);
      if (tail) {
        ovc.allocated = false;
        mask_alloc(pi, static_cast<std::size_t>(iv.out_vc), false);
        mask_set_state(static_cast<unsigned>(idx), iv, InputVc::State::kIdle);
        iv.out_vc = kInvalidVc;
      }
      used_ports |= port_bits(in_pi);
      op.sa_rr = (idx + 1) % candidates;
      break;
    }
  }
}

void Router::stage_vc_allocation() {
  const int vcs = vcs_;
  // Only VCs in kWaitVc can make progress here; walk the set bits of the
  // wait word in ascending order — identical to the old port-major scan.
  std::uint64_t waiting = waitvc_mask_;
  while (waiting != 0) {
    const int b = std::countr_zero(waiting);
    waiting &= waiting - 1;
    InputVc& iv = input_[static_cast<std::size_t>(b / vcs)]
                        [static_cast<std::size_t>(b % vcs)];
    const std::size_t out_pi = port_index(iv.out_port);
    OutputPort& op = output_[out_pi];
    // Dateline VC classes (torus DOR): class 0 worms may only claim the
    // lower half of the output VCs, class 1 the upper half, so the cyclic
    // channel dependency around each ring is cut at the wrap link. Local
    // ejection is exempt — it never feeds back into the ring.
    int lo = 0;
    int n = vcs;
    if (dateline_ && iv.out_port != Port::kLocal) {
      const int half = vcs / 2;
      if (iv.fifo.empty() || !iv.fifo.front().is_head()) continue;
      lo = iv.fifo.front().vc_class == 0 ? 0 : half;
      n = iv.fifo.front().vc_class == 0 ? half : vcs - half;
    }
    // First unallocated output VC in cyclic order from va_rr, inside the
    // [lo, lo+n) window, straight off the free-VC word.
    const std::uint64_t window =
        ((bit64(static_cast<unsigned>(n)) - 1) << lo) & free_vc_mask_[out_pi];
    if (window == 0) continue;
    const unsigned s0 = static_cast<unsigned>(lo + op.va_rr % n);
    std::uint64_t hi = (window >> s0) << s0;
    const int cand = hi != 0 ? std::countr_zero(hi)
                             : std::countr_zero(window & (bit64(s0) - 1));
    OutputVc& ovc = op.vcs[static_cast<std::size_t>(cand)];
    ovc.allocated = true;
    mask_alloc(out_pi, static_cast<std::size_t>(cand), true);
    iv.out_vc = cand;
    mask_set_state(static_cast<unsigned>(b), iv, InputVc::State::kActive);
    op.va_rr = (cand + 1) % vcs;
  }
}

void Router::stage_route_computation(Cycle now) {
  const int vcs = vcs_;
  // Work word: idle input VCs holding a flit. kRouting never persists across
  // cycles (every kRouting VC below leaves as kWaitVc or kIdle before this
  // function returns), so "idle" is exactly "neither active nor waiting".
  std::uint64_t work = occ_mask_ & ~(active_mask_ | waitvc_mask_);
  while (work != 0) {
    const int b = std::countr_zero(work);
    work &= work - 1;
    {
      const auto in_pi = static_cast<std::size_t>(b / vcs);
      const auto in_port = static_cast<Port>(in_pi);
      const auto v = static_cast<VcId>(b % vcs);
      InputVc& iv = input_[in_pi][static_cast<std::size_t>(v)];
      if (iv.state == InputVc::State::kIdle && !iv.fifo.empty() &&
          !iv.fifo.front().is_head()) {
        // Orphaned worm fragment: its head was destroyed by a hard fault
        // before this remainder arrived (never fires fault-free — an idle
        // VC's next flit is always a head). Drop up to the next head.
        drop_leading_worm(now, in_port, v, iv, /*return_credits=*/true,
                          /*lost=*/nullptr);
      }
      if (iv.state == InputVc::State::kIdle && !iv.fifo.empty() &&
          iv.fifo.front().is_head()) {
        mask_set_state(static_cast<unsigned>(b), iv, InputVc::State::kRouting);
      }
      if (iv.state == InputVc::State::kRouting) {
        std::array<Port, 2> candidates{};
        const int n = route_candidates(net_->topology(), id_,
                                       iv.fifo.front().dst, candidates);
        if (n == 0) {
          // Destination unreachable after hard faults: drop the worm here;
          // the source NI's end-to-end machinery (or the network's fault
          // repair sweep) handles the packet-level consequence.
          drop_leading_worm(now, in_port, v, iv, /*return_credits=*/true,
                            /*lost=*/nullptr);
          mask_set_state(static_cast<unsigned>(b), iv, InputVc::State::kIdle);
          continue;
        }
        iv.out_port = candidates[0];
        if (n > 1) {
          // Adaptive selection: prefer the candidate with more downstream
          // buffer credit (a standard congestion-aware tie-break).
          int best_credits = -1;
          for (int k = 0; k < n; ++k) {
            const OutputPort& op = output_[port_index(candidates[static_cast<std::size_t>(k)])];
            int credits = 0;
            for (const OutputVc& vc : op.vcs) credits += vc.credits;
            if (credits > best_credits) {
              best_credits = credits;
              iv.out_port = candidates[static_cast<std::size_t>(k)];
            }
          }
        }
        if (dateline_ && iv.out_port != Port::kLocal) {
          // Dateline stamp: reset the class when the worm turns into a new
          // dimension (or injects), raise it when crossing the wrap link.
          Flit& head = iv.fifo.front();
          std::uint8_t cls = (in_port == Port::kLocal ||
                              port_dim(in_port) != port_dim(iv.out_port))
                                 ? 0
                                 : head.vc_class;
          if (net_->topology().wrap_link(id_, iv.out_port)) cls = 1;
          head.vc_class = cls;
        }
        mask_set_state(static_cast<unsigned>(b), iv, InputVc::State::kWaitVc);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Wire transmission with the mode-specific link-layer policy
// --------------------------------------------------------------------------

void Router::transmit(Cycle now, Port out_port, Flit&& flit, bool is_copy) {
  const std::size_t pi = port_index(out_port);
  OutputPort& op = output_[pi];
  const bool mesh = out_port != Port::kLocal;
  ChannelPair* ch = mesh ? net_->out_channel(id_, out_port) : &net_->ej_channel(id_);
  RLFTNOC_CHECK(ch != nullptr, "router %d: transmit through edge port %s", id_,
                port_name(out_port));

  if (mesh && !is_copy) flit.lsn = op.next_lsn++;

  const bool protect = mesh && ecc_enabled() && !is_copy;
  if (protect) {
    flit.ecc = encode_flit_ecc(default_secded(), flit.payload);
    flit.ecc_valid = true;
    net_->record_power(id_, PowerEvent::kEccEncode);
    op.retention.insert(flit.id(), ArqRetention{flit, 1, false});
    net_->record_power(id_, PowerEvent::kOutputBufferWrite);
  }
  if (is_copy) {
    ArqRetention* r = find_retention(out_port, flit.id());
    // Callers verify the retention entry exists before resending.
    RLFTNOC_CHECK(r != nullptr,
                  "router %d port %s: resent flit %llu has no retention entry",
                  id_, port_name(out_port),
                  static_cast<unsigned long long>(flit.id()));
    if (r != nullptr) ++r->unresolved;
  }

  // `wire_extra` delays delivery (pipelined codec / stall); `occupancy` is
  // how long the channel stays unavailable for the next flit.
  Cycle wire_extra = 0;
  Cycle occupancy = 1;
  bool relaxed = false;
  if (flit.ecc_valid) {
    // Pipelined SECDED encode+decode adds a cycle of latency per hop but
    // does not reduce link throughput.
    wire_extra += 1;
  }
  if (mesh && mode_ == OpMode::kMode3) {
    // One cycle of control signalling plus one stall cycle (Fig. 3(d)):
    // delivery slips by two cycles and the channel is held for three.
    wire_extra += 2;
    occupancy = 3;
    relaxed = true;
  }

  const FlitId fid = flit.id();
  if (mesh) net_->corrupt_on_wire(id_, out_port, flit, relaxed, trace_);
  ch->flits.push_delayed(now, std::move(flit), wire_extra);
  net_->record_power(id_, PowerEvent::kLinkTraversal);
  ++counters_.flits_out[pi];
  op.busy_until = now + occupancy;

  if (mesh && mode_ == OpMode::kMode2 && !is_copy) {
    // Flit pre-retransmission: schedule the proactive duplicate one idle
    // cycle after the original (Fig. 3(c)).
    op.dup_queue.push_back(OutputPort::PendingDup{now + 2, fid});
  }
}

// --------------------------------------------------------------------------
// Hard-fault teardown (serial context — called by the Network between steps)
// --------------------------------------------------------------------------

void Router::drop_leading_worm(Cycle now, Port in, VcId v, InputVc& iv,
                               bool return_credits,
                               std::vector<LostFlit>* lost) {
  bool first = true;
  while (!iv.fifo.empty()) {
    const Flit& f = iv.fifo.front();
    if (!first && f.is_head()) break;  // next worm starts here
    first = false;
    if (lost != nullptr) lost->push_back(LostFlit{f.packet_id, f.src, f.dst});
    ++counters_.fault_drops;
    if (return_credits) {
      if (in == Port::kLocal) {
        net_->inj_channel(id_).credits.push(now, Credit{v});
      } else if (ChannelPair* ch = net_->in_channel(id_, in)) {
        ch->credits.push(now, Credit{v});
      }
    }
    iv.fifo.pop_front();
    --buffered_;
  }
  mask_update_occupancy(ivc_bit(port_index(in), static_cast<std::size_t>(v)), iv);
}

void Router::purge_dead_output(Cycle now, Port p, std::vector<LostFlit>& lost) {
  const std::size_t pi = port_index(p);
  OutputPort& op = output_[pi];

  // Retention copies are bookkeeping for flits whose transmitted instance
  // was already counted at the wire; losing the copy loses the packet's only
  // recovery path, so record the identity (but no instance drop).
  op.retention.for_each([&](FlitId, const ArqRetention& r) {
    lost.push_back(LostFlit{r.clean.packet_id, r.clean.src, r.clean.dst});
  });
  op.retention.reset(static_cast<std::size_t>(cfg_->retention_depth));
  op.retx_queue.clear();
  op.dup_queue.clear();
  op.busy_until = 0;

  // Worms mid-flight toward the dead port: drop the local fragment and free
  // the output VC. The head flits already on the dead wire are collected by
  // the network's wire sweep.
  for (std::size_t in_pi = 0; in_pi < kNumPorts; ++in_pi) {
    for (VcId v = 0; v < cfg_->vcs_per_port; ++v) {
      InputVc& iv = input_[in_pi][static_cast<std::size_t>(v)];
      const bool granted = iv.state == InputVc::State::kWaitVc ||
                           iv.state == InputVc::State::kActive;
      if (!granted || iv.out_port != p) continue;
      drop_leading_worm(now, static_cast<Port>(in_pi), v, iv,
                        /*return_credits=*/true, &lost);
      mask_set_state(ivc_bit(in_pi, static_cast<std::size_t>(v)), iv,
                     InputVc::State::kIdle);
      iv.out_vc = kInvalidVc;
    }
  }
  // All worms bound for p are gone; restore the port's credit/allocation
  // state to its reset value (the auditor skips dead channels, but stale
  // claims must not linger).
  for (auto& vc : op.vcs) {
    vc.allocated = false;
    vc.credits = cfg_->vc_depth;
  }
  free_vc_mask_[pi] = port_bits(0);
  credit_mask_[pi] = port_bits(0);
}

void Router::purge_dead_input(Port p, std::vector<LostFlit>& lost,
                              std::vector<SeveredWorm>& severed) {
  const std::size_t pi = port_index(p);
  for (VcId v = 0; v < cfg_->vcs_per_port; ++v) {
    InputVc& iv = input_[pi][static_cast<std::size_t>(v)];
    if (iv.state == InputVc::State::kActive) {
      // Head already forwarded downstream: report the severed continuation
      // so the network can chase and purge it. An active VC with an empty
      // FIFO gives no packet identity — the stranded remainder is cleaned
      // up lazily by the orphan rule in RC (see DESIGN.md).
      if (!iv.fifo.empty() && !iv.fifo.front().is_head() &&
          iv.out_port != Port::kLocal) {
        severed.push_back(
            SeveredWorm{iv.fifo.front().packet_id, iv.out_port, iv.out_vc});
      }
      output_[port_index(iv.out_port)]
          .vcs[static_cast<std::size_t>(iv.out_vc)]
          .allocated = false;
      mask_alloc(port_index(iv.out_port), static_cast<std::size_t>(iv.out_vc),
                 false);
    }
    // Drop everything buffered — the reverse credit lane died with the link,
    // so no credits go back.
    while (!iv.fifo.empty()) {
      const Flit& f = iv.fifo.front();
      lost.push_back(LostFlit{f.packet_id, f.src, f.dst});
      ++counters_.fault_drops;
      iv.fifo.pop_front();
      --buffered_;
    }
    const unsigned b = ivc_bit(pi, static_cast<std::size_t>(v));
    mask_update_occupancy(b, iv);
    mask_set_state(b, iv, InputVc::State::kIdle);
    iv.out_vc = kInvalidVc;
  }
  input_arq_[pi] = InputArq{};
}

Router::ChainNext Router::purge_worm_of_packet(Cycle now, Port in, VcId v,
                                               PacketId packet,
                                               std::vector<LostFlit>& lost) {
  ChainNext next;
  InputVc& iv = ivc(in, v);
  const bool granted = iv.state == InputVc::State::kWaitVc ||
                       iv.state == InputVc::State::kActive;
  if (granted && !iv.fifo.empty() && iv.fifo.front().packet_id == packet) {
    next.walk = iv.state == InputVc::State::kActive &&
                iv.out_port != Port::kLocal && !iv.fifo.front().is_head();
    next.out_port = iv.out_port;
    next.out_vc = iv.out_vc;
    if (iv.state == InputVc::State::kActive) {
      output_[port_index(iv.out_port)]
          .vcs[static_cast<std::size_t>(iv.out_vc)]
          .allocated = false;
      mask_alloc(port_index(iv.out_port), static_cast<std::size_t>(iv.out_vc),
                 false);
    }
    drop_leading_worm(now, in, v, iv, /*return_credits=*/true, &lost);
    mask_set_state(ivc_bit(port_index(in), static_cast<std::size_t>(v)), iv,
                   InputVc::State::kIdle);
    iv.out_vc = kInvalidVc;
    return next;
  }
  // The fragment is queued behind another worm (or never granted), so its
  // head is among the queued flits — a by-identity sweep removes exactly the
  // severed worm and the walk ends here.
  const std::size_t n = iv.fifo.remove_if([&](const Flit& f) {
    if (f.packet_id != packet) return false;
    lost.push_back(LostFlit{f.packet_id, f.src, f.dst});
    return true;
  });
  counters_.fault_drops += static_cast<std::uint64_t>(n);
  buffered_ -= static_cast<int>(n);
  mask_update_occupancy(ivc_bit(port_index(in), static_cast<std::size_t>(v)), iv);
  for (std::size_t i = 0; i < n; ++i) {
    if (in == Port::kLocal) {
      net_->inj_channel(id_).credits.push(now, Credit{v});
    } else if (ChannelPair* ch = net_->in_channel(id_, in)) {
      ch->credits.push(now, Credit{v});
    }
  }
  return next;
}

void Router::purge_for_router_kill(std::vector<LostFlit>& lost) {
  for (std::size_t pi = 0; pi < kNumPorts; ++pi) {
    for (auto& iv : input_[pi]) {
      while (!iv.fifo.empty()) {
        const Flit& f = iv.fifo.front();
        lost.push_back(LostFlit{f.packet_id, f.src, f.dst});
        ++counters_.fault_drops;
        iv.fifo.pop_front();
      }
      iv.state = InputVc::State::kIdle;
      iv.out_vc = kInvalidVc;
    }
    OutputPort& op = output_[pi];
    op.retention.for_each([&](FlitId, const ArqRetention& r) {
      lost.push_back(LostFlit{r.clean.packet_id, r.clean.src, r.clean.dst});
    });
    op.retention.reset(static_cast<std::size_t>(cfg_->retention_depth));
    op.retx_queue.clear();
    op.dup_queue.clear();
    op.busy_until = 0;
    const int depth = (static_cast<Port>(pi) == Port::kLocal)
                          ? cfg_->local_vc_depth
                          : cfg_->vc_depth;
    for (auto& vc : op.vcs) {
      vc.allocated = false;
      vc.credits = depth;
    }
    input_arq_[pi] = InputArq{};
    free_vc_mask_[pi] = port_bits(0);
    credit_mask_[pi] = port_bits(0);
  }
  // Everything is drained: the packed words collapse to their reset values.
  occ_mask_ = 0;
  active_mask_ = 0;
  waitvc_mask_ = 0;
  active_to_.fill(0);
  buffered_ = 0;
}

// --------------------------------------------------------------------------
// Retention bookkeeping
// --------------------------------------------------------------------------

ArqRetention* Router::find_retention(Port p, FlitId id) {
  return output_[port_index(p)].retention.find(id);
}

void Router::erase_retention(Port p, FlitId id) {
  output_[port_index(p)].retention.erase(id);
}

void Router::drop_queued_copies(Port p, FlitId id) {
  OutputPort& op = output_[port_index(p)];
  op.retx_queue.remove_if([&](FlitId f) { return f == id; });
  op.dup_queue.remove_if(
      [&](const OutputPort::PendingDup& d) { return d.id == id; });
}

// --------------------------------------------------------------------------
// Observation
// --------------------------------------------------------------------------

int Router::occupied_input_vcs() const noexcept {
  // An input VC is occupied when it buffers a flit or holds a grant; outside
  // the execute stages no VC is ever in the transient kRouting state, so the
  // union of the packed words is exactly the old full scan.
  return std::popcount(occ_mask_ | active_mask_ | waitvc_mask_);
}

int Router::buffered_flits() const noexcept { return buffered_; }

int Router::pending_link_work() const noexcept {
  int n = 0;
  for (const auto& op : output_) {
    n += static_cast<int>(op.retention.size() + op.retx_queue.size() +
                          op.dup_queue.size());
  }
  return n;
}

bool Router::quiescent() const noexcept {
  if ((occ_mask_ | active_mask_ | waitvc_mask_) != 0) return false;
  for (const auto& op : output_) {
    if (!op.retention.empty() || !op.retx_queue.empty() || !op.dup_queue.empty())
      return false;
  }
  return true;
}

}  // namespace rlftnoc
