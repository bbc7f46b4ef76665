//! The engine: the **single** implementation of each half of SHRIMP's
//! fast path.
//!
//! The paper's fast path is one hardware story — proxy STORE, proxy
//! LOAD, DMA, packetize → wire → receive-side EISA DMA → status word —
//! and this module is where both halves of that story live, exactly
//! once:
//!
//! - [`Executor`] is the sender half: the literal `udma_send`, the NIC
//!   drain, the two-send calibration against [`steady_stride`], the
//!   replay of the steady-state tail, and the fabric injection of every
//!   packet and run;
//! - [`DeliveryCore`] is the receiver half: it drains a
//!   [`Fabric`] in `(link_ready, id)` order and applies each
//!   delivery.
//!
//! Both entry points run this code. The serial driver
//! ([`Multicomputer::send_burst`] and friends) runs one executor and one
//! core over one machine-wide [`Fabric`]; the sharded engine
//! ([`Multicomputer::run`]) runs one of each per shard. The two differ
//! only in their [`TrainHost`]: where staged entries go and when they
//! commit. The serial host stages straight into the machine-wide fabric
//! and commits everything after every literal send; a shard stages into
//! per-destination-shard batches and commits at epoch boundaries. The
//! timelines therefore agree whenever the flows are independent — each
//! receiving node hears from one sender and sends nothing itself — and
//! not otherwise: a 2-node exchange, fan-in (two senders, one receiver)
//! and chains (a receiver that also sends) all diverge (see `DESIGN.md`
//! §6b).
//!
//! A [`Lane`] is a node plus the receive-side state ([`RxState`]) that
//! must live wherever deliveries to that node are applied; [`LaneMap`]
//! abstracts how an engine finds the lane for a global node index
//! (identity for the serial driver; for a shard, the node's slot in the
//! contiguous block of nodes it owns).
//!
//! [`Multicomputer::send_burst`]: crate::Multicomputer::send_burst
//! [`Multicomputer::run`]: crate::Multicomputer::run

use shrimp_net::{Commit, Fabric, Packet, PacketClass, PacketRun, Staged};
use shrimp_os::{Trap, UdmaXferResult};
use shrimp_sim::{CostModel, FlightRecorder, SimDuration, SimTime, SpanRecord};

use crate::program::DeliveryEvent;
use crate::{OutgoingPacket, OutgoingRun, SendOp, ShrimpNode};

/// The model's steady-state per-message clock stride for a warm
/// single-chunk send of `nbytes`: per-message library software, the user
/// check, the initiation STORE, the initiating and final status LOADs
/// (the mid-transfer busy LOAD is absorbed by the wait for DMA
/// completion), DMA start, and the bus burst. A measured message pair
/// whose stride equals this is in the replayable steady state —
/// [`Executor::train`] calibrates against it.
fn steady_stride(cost: &CostModel, nbytes: u64) -> SimDuration {
    cost.udma_per_message_sw
        + cost.udma_user_check
        + cost.proxy_store
        + cost.proxy_load * 2
        + cost.dma_start
        + cost.bus_transfer(nbytes)
}

/// What an entry point supplies to [`Executor::train`]: the sending node,
/// and what happens to the packets each send leaves in NICs.
pub(crate) trait TrainHost {
    /// The node the train runs on.
    fn sender(&mut self) -> &mut ShrimpNode;

    /// Called after every literal send and after a replay: drains the
    /// built packets through [`Executor::drain`] (stamping `class`) and
    /// puts the staged entries wherever this entry point stages them —
    /// committing them too, if it commits per send.
    fn flush(&mut self, tx: &mut Executor, class: PacketClass);
}

/// The sender half of the engine: **the** send → calibrate → replay →
/// stage sequence, plus the scratch it drains NICs into. One per
/// execution context (the machine when serial, each shard when sharded).
#[derive(Debug)]
pub(crate) struct Executor {
    /// NIC drain target, reused across sends.
    outbox: Vec<OutgoingPacket>,
    /// NIC burst-descriptor drain target, reused across replays.
    run_outbox: Vec<OutgoingRun>,
    /// Whether steady-state trains may replay as runs (see
    /// [`Multicomputer::set_burst`](crate::Multicomputer::set_burst)).
    pub burst: bool,
    /// Messages sent, literal and replayed.
    pub messages: u64,
    /// Packets injected (a run counts every member).
    pub packets: u64,
}

impl Executor {
    pub fn new(burst: bool) -> Self {
        Executor {
            outbox: Vec::new(),
            run_outbox: Vec::with_capacity(8),
            burst,
            messages: 0,
            packets: 0,
        }
    }

    /// Sends `op` `count` times back to back from `host`'s sender — the
    /// §7 message train. While at least three messages remain (and
    /// batching is on), two literal sends calibrate the train: if both
    /// complete in one transfer with no retries and their clock stride
    /// matches [`steady_stride`], the rest *replay* — the machine books
    /// their counters and events wholesale and the NIC builds one
    /// gather descriptor the fabric stages as one run. Otherwise the
    /// train goes on from there, recalibrating while it can. The
    /// timeline is identical either way.
    ///
    /// Returns the last literal send's result (replayed members are
    /// replicas of it), or the first kernel trap, which ends the train.
    // lint:hot_path
    pub fn train(
        &mut self,
        host: &mut impl TrainHost,
        op: &SendOp,
        count: u64,
    ) -> Result<UdmaXferResult, Trap> {
        let mut last = UdmaXferResult::default();
        let mut left = count;
        while left > 0 {
            if !self.burst || left < 3 {
                last = self.literal(host, op)?;
                left -= 1;
                continue;
            }
            let r0 = self.literal(host, op)?;
            let e0 = host.sender().os().machine().now();
            last = self.literal(host, op)?;
            left -= 2;
            let machine = host.sender().os_mut().machine_mut();
            let stride = machine.now().saturating_duration_since(e0);
            let eligible = r0.transfers == 1
                && r0.retries == 0
                && last == r0
                && stride == steady_stride(machine.cost(), op.nbytes)
                && stride.as_nanos() <= u64::from(u32::MAX);
            if eligible && machine.udma_replay_messages(left, stride) {
                self.messages += left;
                host.flush(self, op.class);
                return Ok(last);
            }
        }
        Ok(last)
    }

    /// One literal send — the proxy STORE/LOAD initiation and the DMA
    /// into the NIC — then the host flushes what it built.
    fn literal(&mut self, host: &mut impl TrainHost, op: &SendOp) -> Result<UdmaXferResult, Trap> {
        // The sender's kernel (initiation retries, the page-fault handlers
        // below it) is not the delivery path: a bad user argument returns
        // a `Trap` that ends only this train.
        // lint:allow(P1) -- kernel `expect`s guard its own bookkeeping,
        // which the I1–I4 property suite (prop_invariants.rs) exercises.
        let result = host.sender().os_mut().udma_send(
            op.pid,
            op.src_va,
            op.dev_page,
            op.dev_off,
            op.nbytes,
        )?;
        self.messages += 1;
        host.flush(self, op.class);
        Ok(result)
    }

    /// Drains `node`'s NIC — built packets, then replayed runs — into
    /// `fabric`: stamps each with `class`, injects it (routing latency
    /// only), and hands `(link_ready, merge tag, entry)` to `sink`, which
    /// stages it. Allocation-free once warm: the outboxes keep their
    /// capacity across drains.
    pub fn drain(
        &mut self,
        node: &mut ShrimpNode,
        tracing: bool,
        class: PacketClass,
        fabric: &mut Fabric,
        mut sink: impl FnMut(&mut Fabric, SimTime, u64, Staged),
    ) {
        node.drain_nic(tracing, &mut self.outbox);
        for out in self.outbox.drain(..) {
            let mut packet = out.packet;
            packet.class = class;
            let link_ready = fabric.inject(&mut packet, out.ready_at);
            self.packets += 1;
            sink(fabric, link_ready, packet.merge_tag(), Staged::One(packet));
        }
        node.drain_nic_runs(&mut self.run_outbox);
        for out in self.run_outbox.drain(..) {
            let mut run =
                PacketRun { template: out.packet, count: out.count, stride_ns: out.stride_ns };
            run.template.class = class;
            let link_ready = fabric.inject_run(&mut run, out.ready_at);
            self.packets += u64::from(run.count);
            sink(fabric, link_ready, run.template.merge_tag(), Staged::Run(run));
        }
    }
}

/// Receive-side per-node state: it must be owned by whichever engine
/// currently applies deliveries to the node, so it travels with the node
/// inside a [`Lane`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct RxState {
    /// When the node's EISA bus frees up (receive-side DMA serializes on
    /// it).
    pub eisa_busy: SimTime,
    /// When the last delivery to the node completed.
    pub last_delivery: SimTime,
}

impl Default for RxState {
    fn default() -> Self {
        RxState { eisa_busy: SimTime::ZERO, last_delivery: SimTime::ZERO }
    }
}

/// One node plus its receive-side state: the unit of ownership both
/// engine instantiations shard (the serial driver owns every lane; a
/// parallel shard owns one contiguous block of lanes).
#[derive(Debug)]
pub(crate) struct Lane {
    pub node: ShrimpNode,
    pub rx: RxState,
    /// Deliveries surfaced to this node's traffic program since its last
    /// step, in commit order. Only populated while `collect` is set (the
    /// node runs a reactive program); cleared at every program step.
    pub inbox: Vec<DeliveryEvent>,
    /// Whether [`DeliveryCore::deliver`] should surface deliveries into
    /// `inbox`. Off outside reactive `run_programs` runs, so the legacy
    /// paths pay one predictable branch and nothing else.
    pub collect: bool,
}

impl Lane {
    pub fn new(node: ShrimpNode) -> Self {
        Lane { node, rx: RxState::default(), inbox: Vec::new(), collect: false }
    }
}

/// How an engine finds the [`Lane`] for a global node index: identity for
/// the serial driver (which owns all lanes), `global - block start` for a
/// shard (which owns one contiguous block of lanes).
pub(crate) trait LaneMap {
    fn lane_mut(&mut self, node: usize) -> &mut Lane;
}

impl LaneMap for [Lane] {
    fn lane_mut(&mut self, node: usize) -> &mut Lane {
        &mut self[node]
    }
}

/// The receive-side delivery engine: EISA DMA apply, clock and
/// `last_delivery` advance, passive-receiver wakeup, and `SpanRecord`
/// stamping. There is exactly one of these per execution context (the
/// whole machine when serial, one per shard when parallel) and exactly
/// one implementation of its logic in the codebase.
#[derive(Debug)]
pub(crate) struct DeliveryCore {
    /// Passive-receiver clock model: applying a delivery advances an idle
    /// receiver's clock to the delivery completion.
    pub passive: bool,
    /// Packets dropped for naming physical addresses outside the
    /// receiver's memory.
    pub dropped: u64,
    /// Packets successfully deposited into receiver memory.
    pub delivered: u64,
    /// Run prefixes committed as one dispatch (each covers ≥ 1 member;
    /// `delivered / runs_committed` is the mean batch the drain achieved).
    pub runs_committed: u64,
    /// Runs that could not commit whole: an interleaving same-destination
    /// key or the epoch horizon forced the tail back into the queue.
    pub run_splits: u64,
    /// The transfer-level flight recorder this core stamps spans into.
    pub recorder: FlightRecorder,
}

impl DeliveryCore {
    pub fn new(passive: bool, recorder: FlightRecorder) -> Self {
        DeliveryCore {
            passive,
            dropped: 0,
            delivered: 0,
            runs_committed: 0,
            run_splits: 0,
            recorder,
        }
    }

    /// Commits every staged entry with `link_ready` at or before
    /// `horizon` (`None` = drain everything), in the fabric's
    /// deterministic per-destination `(link_ready, id)` order (see
    /// [`Fabric::commit_next`]): **the** delivery drain loop. A single packet delivers one at a time; a run's committed
    /// prefix delivers under one dispatch — one horizon check and one
    /// lane lookup cover the whole prefix. Allocation-free.
    // lint:hot_path
    pub fn commit_due<L: LaneMap + ?Sized>(
        &mut self,
        fabric: &mut Fabric,
        lanes: &mut L,
        horizon: Option<SimTime>,
    ) {
        while let Some(commit) = fabric.commit_next(horizon) {
            match commit {
                Commit::One { link_ready, arrival, packet } => {
                    let dst = packet.dst.raw() as usize;
                    self.deliver(lanes.lane_mut(dst), link_ready, arrival, &packet);
                }
                Commit::Run { link_ready: _, run, take } => {
                    self.deliver_run(fabric, lanes, run, take);
                }
            }
        }
    }

    /// Applies the committed prefix of a run: the lane is looked up once,
    /// each member is admitted on the inbound link and delivered through
    /// the same [`DeliveryCore::deliver`] as the single-packet path (the
    /// template walks forward by one stride per member, so every span and
    /// timestamp is bit-identical to the unbatched drain), and any
    /// remainder re-stages into the fabric without cloning the payload.
    // lint:hot_path
    fn deliver_run<L: LaneMap + ?Sized>(
        &mut self,
        fabric: &mut Fabric,
        lanes: &mut L,
        mut run: PacketRun,
        take: u32,
    ) {
        let lane = lanes.lane_mut(run.template.dst.raw() as usize);
        self.runs_committed += 1;
        if take < run.count {
            self.run_splits += 1;
        }
        let mut left = take;
        loop {
            let link_ready = run.template.meta.link_ready;
            let arrival = fabric.admit(&run.template, link_ready);
            self.deliver(lane, link_ready, arrival, &run.template);
            left -= 1;
            if left == 0 {
                break;
            }
            run.advance(1);
        }
        // The template now sits at the last delivered member; one more
        // step puts the first undelivered member at the head (or drops
        // the run, recycling its payload, when none remain).
        fabric.restage_run_tail(run, 1);
    }

    /// Applies one packet to its destination lane: one receive-side EISA
    /// DMA transaction (arbitration/setup plus the payload burst), the
    /// deposit into physical memory, delivery bookkeeping, span stamping,
    /// and the passive-receiver clock advance.
    // lint:hot_path
    fn deliver(&mut self, lane: &mut Lane, link_ready: SimTime, arrival: SimTime, packet: &Packet) {
        let start = arrival.max(lane.rx.eisa_busy);
        let done = {
            let cost = lane.node.os().machine().cost();
            start + cost.dma_start + cost.bus_transfer(packet.payload.len() as u64)
        };
        lane.rx.eisa_busy = done;
        let mem = lane.node.os_mut().machine_mut().mem_mut();
        // dst_paddr was produced by the sender's NIPT lookup (invariant
        // I2: outgoing translation is the protection check); the write
        // re-validates bounds and a failure counts a drop, never a stray
        // store.
        // lint:allow(F1) -- sender-side NIPT translation (I2, see above).
        if mem.write(packet.dst_paddr, &packet.payload).is_err() {
            self.dropped += 1;
            return;
        }
        self.delivered += 1;
        lane.rx.last_delivery = lane.rx.last_delivery.max(done);
        if lane.collect {
            // lint:allow(A1) -- the inbox keeps its capacity across epochs
            // (program steps drain it in place) and reactive runs reserve
            // it up front, so steady-state pushes never reallocate.
            lane.inbox.push(DeliveryEvent {
                src: packet.src,
                dst_paddr: packet.dst_paddr,
                bytes: packet.payload.len() as u32,
                done,
                class: packet.class,
            });
        }
        if self.recorder.is_enabled() {
            let m = packet.meta;
            self.recorder.record(SpanRecord {
                id: m.id,
                src: packet.src.raw(),
                dst: packet.dst.raw(),
                bytes: packet.payload.len() as u32,
                initiated_at: m.initiated_at,
                queued_at: m.queued_at,
                link_ready,
                wire_done: arrival,
                delivered_at: done,
                status_at: m.status_observed.max(done),
            });
        }
        // Passive receiver: an idle node's clock catches up to the
        // delivery it was waiting for.
        if self.passive {
            lane.node.os_mut().machine_mut().advance_to(done);
        }
    }

    /// Whether span recording is on.
    pub fn tracing(&self) -> bool {
        self.recorder.is_enabled()
    }
}
