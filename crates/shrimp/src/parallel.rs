//! Conservative parallel execution of deliberate-update workloads.
//!
//! [`Multicomputer::run`] runs a *plan* — per-node lists of UDMA sends —
//! with every node sharded across worker threads, advancing in bounded
//! **epochs** synchronized by the fabric's lookahead (one router hop): a
//! node paused at simulated instant `t` cannot make any packet reach a
//! destination's inbound link at or before `t`, so all traffic at or
//! before the minimum paused clock is safe to commit.
//!
//! There is no separate parallel send or delivery implementation: each
//! shard owns an `Executor` (the send → calibrate → replay → stage
//! sequence), its part of the split [`Fabric`] (the staged-packet source) and a
//! `DeliveryCore` (the receive-side EISA DMA apply) — the same three
//! pieces the serial driver ([`Multicomputer::send_burst`],
//! [`Multicomputer::propagate`]) runs over the whole machine. What a
//! shard adds is only *where staged entries go and when they commit*:
//! into per-destination-shard batches, committed at epoch boundaries,
//! where the serial driver stages into the one machine-wide fabric and
//! commits after every literal send.
//!
//! Each epoch has two barrier-separated phases:
//!
//! 1. **Execute** — every shard runs each of its unfinished nodes for up
//!    to `K ·` [`CHUNK`] sends, where `K` is the crossing's
//!    windows-per-barrier count: `K` lookahead windows' worth of work
//!    paid for with *one* barrier crossing (see [`WindowSchedule`]).
//!    Outgoing packets are injected into the shard's [`Fabric`] part
//!    (routing latency only) and posted to the receiving shard's mailbox
//!    keyed `(link_ready, transfer id)`. The shard then publishes a
//!    bound: the minimum clock of its unfinished nodes.
//! 2. **Commit** — after the barrier, every shard reads the global
//!    horizon (minimum published bound), drains its mailboxes into its
//!    fabric's staged queue, and lets its `DeliveryCore` commit every
//!    packet at or before the horizon in `(link_ready, transfer id)`
//!    order: inbound-link serialization, receive-side EISA DMA, the
//!    write into physical memory. A second barrier keeps next-epoch
//!    bound publications from racing this epoch's horizon reads.
//!
//! **Determinism.** The horizon is the minimum over *all* unfinished
//! node clocks — independent of how nodes are assigned to shards — and
//! per-epoch node progress is a fixed span (`K · CHUNK` sends, with `K`
//! itself a pure function of the plan shape), so the sequence of
//! horizons is a pure function of the plan. Each destination's packets
//! are committed in `(link_ready, id)` order with per-destination
//! receive state, so the simulated timeline and receiver memory are
//! **bit-identical at any thread count**, including `threads = 1`.
//! The *serial* driver runs the same executor and delivery core, but its
//! commit-after-every-send order is a different schedule: its timeline
//! matches this engine's whenever the flows are independent — each
//! receiving node hears from one sender and sends nothing itself — and
//! not otherwise (see `DESIGN.md` §6b).

use shrimp_mem::VirtAddr;
use shrimp_net::{Fabric, PacketClass, Staged};
use shrimp_os::Pid;
use shrimp_sim::{ExchangeGrid, FlightRecorder, Histogram, SimTime, SpinBarrier, TimeFrontier};

use crate::engine::{DeliveryCore, Executor, Lane, LaneMap, TrainHost};
use crate::program::{ProgramPlan, TrafficProgram};
use crate::{Multicomputer, ShrimpError, ShrimpNode};

/// Sends a node executes per epoch. Fixed (never derived from the thread
/// count or the host) so epoch boundaries are identical at any
/// parallelism — though the *timeline* would not change anyway: the
/// chunk size only sets how much traffic defers to the next commit.
/// Small enough that the deferred payload window stays cache-resident
/// (large chunks collapse host throughput: every payload is written,
/// aged out of cache, then re-read at commit), large enough to amortize
/// the two barriers. 16 measured best on the `host_throughput` sweep.
const CHUNK: usize = 16;

/// Upper bound on windows executed per barrier crossing. Deep plans run
/// `MAX_EPOCH_WINDOWS · CHUNK` sends between barriers, cutting
/// barrier/frontier traffic (and run-calibration overhead — longer
/// windows mean longer replayed trains) by up to this factor. On a
/// big mesh the execute phase sweeps every owned node's machine state
/// once per crossing, so the span bound directly sets how often that
/// sweep re-fills the cache: 64 windows (1024 sends per node between
/// barriers) measured best on the 64–1024-node `host_throughput` rows.
/// Payload footprint no longer argues for a small span — steady-state
/// trains stage as [`PacketRun`]s, one payload per train regardless of
/// the window count.
pub const MAX_EPOCH_WINDOWS: usize = 64;

/// Deterministic windows-per-crossing schedule.
///
/// Every shard carries a clone and calls [`WindowSchedule::next`]
/// exactly once per barrier crossing, so all shards agree on the span
/// without communicating. The schedule is a pure function of the
/// *initial plan shape* (the deepest node's predicted send count) and
/// the optional forced override — never of execution outcomes or the
/// thread count — so the epoch boundaries, and with them the whole
/// timeline, are identical at any parallelism. The prediction
/// deliberately ignores traps: a trapped node finishes its plan early,
/// which only makes a predicted window partially idle, never incorrect.
#[derive(Clone, Debug)]
struct WindowSchedule {
    /// Predicted sends remaining on the deepest node. Every node's
    /// prediction drops by the same `K · CHUNK` per crossing, so the
    /// deepest node stays deepest and is all the schedule needs.
    deepest: usize,
    /// Forced window count ([`Multicomputer::set_epoch_windows`]);
    /// `None` selects adaptively from the deepest remaining plan.
    forced: Option<usize>,
}

impl WindowSchedule {
    /// `deepest` is the largest per-node predicted send count: a plan's
    /// op count, or a program's initial emission plus its
    /// [`TrafficProgram::planned_hint`].
    fn new(deepest: usize, forced: Option<usize>) -> Self {
        WindowSchedule { deepest, forced }
    }

    /// Window count for the next barrier crossing; advances the plan
    /// prediction.
    fn next(&mut self) -> usize {
        let k = match self.forced {
            Some(k) => k.clamp(1, MAX_EPOCH_WINDOWS),
            None => self.deepest.div_ceil(CHUNK).clamp(1, MAX_EPOCH_WINDOWS),
        };
        self.deepest = self.deepest.saturating_sub(k * CHUNK);
        k
    }
}

/// Which shard owns which node — decided here and nowhere else.
///
/// Ownership is by contiguous block: shard `s` owns nodes
/// `[⌈s·n/t⌉, ⌈(s+1)·n/t⌉)`, i.e. `owner(i) = ⌊i·t/n⌋`. Block sizes
/// differ by at most one, and no shard is empty for `t ≤ n` (the run
/// clamps `t` to that range). Nodes are numbered row-major on the mesh,
/// so a block is a band of mesh rows: pair and neighbour traffic stays
/// inside one shard, and roles assigned by node parity (senders even,
/// receivers odd) land on every shard, so every shard both executes and
/// commits. The assignment cannot move the timeline — the horizon is a
/// global minimum and commit order is per destination — only the host
/// work balance.
#[derive(Clone, Debug)]
struct ShardMap {
    /// Owning shard per node, built once per run: routing a packet is
    /// one table load.
    owner: Vec<usize>,
    /// First node of each shard's block, then the node count as the
    /// closing fence.
    starts: Vec<usize>,
}

impl ShardMap {
    /// Blocks for `nodes` nodes over `threads` shards (`1 ≤ threads ≤ nodes`).
    fn new(nodes: usize, threads: usize) -> Self {
        debug_assert!(threads >= 1 && threads <= nodes, "{threads} shards for {nodes} nodes");
        ShardMap {
            owner: (0..nodes).map(|i| i * threads / nodes).collect(),
            starts: (0..=threads).map(|s| (s * nodes).div_ceil(threads)).collect(),
        }
    }

    /// The nodes shard `s` owns.
    fn block(&self, s: usize) -> std::ops::Range<usize> {
        self.starts[s]..self.starts[s + 1]
    }

    /// The shard that owns `node`.
    // lint:checks(F1) -- the node index is clamped to the last node, so
    // the result is a valid shard whatever a packet's destination field
    // holds.
    #[inline]
    fn owner(&self, node: usize) -> usize {
        self.owner[node.min(self.owner.len() - 1)]
    }

    /// `node`'s slot within its owner's block.
    #[inline]
    fn slot(&self, node: usize) -> usize {
        node - self.starts[self.owner(node)]
    }

    /// The owning shard of every node, in node order.
    fn owners(&self) -> &[usize] {
        &self.owner
    }
}

/// Host wall-clock nanoseconds per epoch phase, recorded when a phase
/// clock is installed ([`Multicomputer::set_phase_clock`]) and merged
/// across shards after a run. Pure observation of *host* time — the
/// simulated timeline cannot see it. One `execute` sample is recorded
/// per shard per barrier crossing; `barrier` gets two samples per
/// crossing (both waits).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Plan execution: sends, NIC drains, staging posts, bound publish.
    pub execute: Histogram,
    /// Barrier waits (the straggler penalty of the crossing).
    pub barrier: Histogram,
    /// Mailbox drain plus staged-queue merge.
    pub merge: Histogram,
    /// Horizon-bounded delivery commit.
    pub commit: Histogram,
}

impl PhaseBreakdown {
    /// Folds another shard's samples into this breakdown.
    pub fn merge_from(&mut self, other: &PhaseBreakdown) {
        self.execute.merge(&other.execute);
        self.barrier.merge(&other.barrier);
        self.merge.merge(&other.merge);
        self.commit.merge(&other.commit);
    }
}

/// Records the nanoseconds since `*mark` into `hist` and re-marks.
/// Cost-free when no phase clock is installed.
#[inline]
fn lap(clock: Option<fn() -> u64>, mark: &mut u64, hist: &mut Histogram) {
    if let Some(c) = clock {
        let now = c();
        hist.record(now.saturating_sub(*mark));
        *mark = now;
    }
}

/// One user-level DMA send in a [`NodePlan`]: the arguments of
/// [`Multicomputer::send`] minus the node index. `PartialEq` lets the
/// engine fold repeated consecutive ops into one message train,
/// `(op, count)`, the unit it hands to the burst-replaying executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendOp {
    /// Sending process.
    pub pid: Pid,
    /// Source buffer virtual address.
    pub src_va: VirtAddr,
    /// Destination device proxy page.
    pub dev_page: u64,
    /// Offset on the proxy page.
    pub dev_off: u64,
    /// Transfer length in bytes.
    pub nbytes: u64,
    /// The §7 priority class the resulting packets travel under
    /// ([`PacketClass::User`] for ordinary data; the engine stamps it
    /// onto every packet the send produces).
    pub class: PacketClass,
}

/// A node's share of a parallel workload.
#[derive(Clone, Debug)]
pub struct NodePlan {
    /// Which node runs the ops.
    pub node: usize,
    /// Sends, executed in order.
    pub ops: Vec<SendOp>,
}

/// What a parallel run did (observability; identical at any thread count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelReport {
    /// Epochs until every plan drained.
    pub epochs: u64,
    /// Sends executed.
    pub messages: u64,
    /// Packets exchanged through the fabric.
    pub packets: u64,
}

/// A cross-shard staged entry: `(link_ready, merge tag, entry)`.
/// `link_ready` is the instant the (first) packet reaches its
/// destination's inbound link, before serialization; the tag is the
/// packet's own transfer id (`source node ‖ per-source sequence`, minted
/// by the sending NIC — a run's first member for [`Staged::Run`]).
type Flit = (SimTime, u64, Staged);

/// One node's sends as message trains: `(op, messages left)` in send
/// order, plus the index of the first unfinished train. Trains before
/// `next` are finished; every train from `next` on has messages left.
#[derive(Clone, Debug, Default)]
struct Trains {
    list: Vec<(SendOp, u64)>,
    next: usize,
}

impl Trains {
    /// The encoder: appends `ops`, extending the last train while it is
    /// unfinished and the op repeats, otherwise starting a new train.
    /// Once every train is finished the list starts over, so a reactive
    /// node's list keeps its capacity.
    fn encode_ops(&mut self, ops: &[SendOp]) {
        if self.exhausted() {
            self.clear();
        }
        for &op in ops {
            // After the reset above the last train is unfinished.
            match self.list.last_mut() {
                Some((last, left)) if *last == op => *left += 1,
                _ => self.list.push((op, 1)),
            }
        }
    }

    /// No messages left *right now*: the node cannot advance its own
    /// clock, so it is excluded from the published bound. A reactive
    /// program may still revive it (deliveries wake it at the next epoch
    /// boundary).
    fn exhausted(&self) -> bool {
        self.next == self.list.len()
    }

    /// Messages left over every unfinished train.
    fn messages(&self) -> usize {
        self.list[self.next..].iter().map(|&(_, left)| left as usize).sum()
    }

    /// Books `sent` messages of the current train.
    fn advance(&mut self, sent: u64) {
        let left = &mut self.list[self.next].1;
        *left -= sent;
        if *left == 0 {
            self.next += 1;
        }
    }

    /// Drops every train, finished or not.
    fn clear(&mut self) {
        self.list.clear();
        self.next = 0;
    }
}

/// A node owned by a shard: its [`Lane`] (node + receive-side state),
/// its unfinished trains, and the traffic program that feeds them,
/// borrowed for the run (absent for static plans, for nodes that only
/// receive, and once a trap has ended the node's traffic).
struct ShardNode<'p> {
    /// Global node index.
    index: usize,
    lane: Lane,
    trains: Trains,
    /// The node's traffic program, stepped at epoch boundaries at which
    /// deliveries arrived.
    program: Option<&'p mut dyn TrafficProgram>,
}

/// How a shard finds the [`Lane`] for a global node index: its block's
/// nodes sit at local slots [`ShardMap::slot`].
struct Block<'a, 'p> {
    nodes: &'a mut [ShardNode<'p>],
    map: &'a ShardMap,
    id: usize,
}

impl LaneMap for Block<'_, '_> {
    fn lane_mut(&mut self, node: usize) -> &mut Lane {
        debug_assert_eq!(self.map.owner(node), self.id, "packet routed to the wrong shard");
        &mut self.nodes[self.map.slot(node)].lane
    }
}

/// One node's trains as a shard runs them: a [`TrainHost`] that stages
/// every injected entry into the batch for its destination's shard.
struct ShardHost<'a> {
    lane: &'a mut Lane,
    fabric: &'a mut Fabric,
    map: &'a ShardMap,
    staging: &'a mut [Vec<Flit>],
    posted_min: &'a mut Option<SimTime>,
    reactive: bool,
    tracing: bool,
}

impl TrainHost for ShardHost<'_> {
    fn sender(&mut self) -> &mut ShrimpNode {
        &mut self.lane.node
    }

    /// Drains only the sender's NIC (a shard's other nodes run their own
    /// trains) and commits nothing: the batches post at the end of the
    /// execute phase and commit under the next horizon.
    fn flush(&mut self, tx: &mut Executor, class: PacketClass) {
        let ShardHost { lane, fabric, map, staging, posted_min, reactive, tracing } = self;
        tx.drain(&mut lane.node, *tracing, class, fabric, |_, link_ready, tag, item| {
            if *reactive {
                **posted_min = Some(posted_min.map_or(link_ready, |m| m.min(link_ready)));
            }
            let dst = match &item {
                Staged::One(packet) => packet.dst,
                Staged::Run(run) => run.template.dst,
            };
            // lint:allow(A1) -- staging batches keep their capacity across
            // epochs (post_batch drains them in place), so steady-state
            // pushes never reallocate.
            staging[map.owner(dst.raw() as usize)].push((link_ready, tag, item));
        });
    }
}

/// One worker's slice of the machine: its nodes, its slice of the fabric
/// (with the deterministic staged queue for traffic addressed to it), and
/// its instances of the shared sender executor and delivery core.
struct Shard<'p> {
    id: usize,
    /// This shard's copy of the run's node ownership.
    map: ShardMap,
    /// The block of nodes [`ShardMap::block`] gives this shard, in node
    /// order.
    nodes: Vec<ShardNode<'p>>,
    fabric: Fabric,
    /// The receive-side delivery implementation — the same code the
    /// serial driver runs, bounded here by the epoch horizon.
    core: DeliveryCore,
    /// The sender-side implementation — the same code the serial driver
    /// runs, staging here into `staging`. Counts the run's messages and
    /// packets.
    tx: Executor,
    /// Staged outgoing flits, one batch per destination shard, posted
    /// once per epoch so mailbox locks are taken O(shards) times.
    staging: Vec<Vec<Flit>>,
    /// Scratch: mailbox drain target.
    incoming: Vec<Flit>,
    /// Scratch: what a program step emits, before it is encoded into
    /// trains.
    scratch: Vec<SendOp>,
    /// This shard's clone of the global windows-per-crossing schedule.
    schedule: WindowSchedule,
    /// Whether any program in the run (on *any* shard) is reactive: the
    /// shard then publishes the reactive bound — node clocks *plus*
    /// staged/posted traffic — so replies injected next epoch can never
    /// land behind the horizon. All-static runs publish the legacy
    /// clock-only bound and reproduce the legacy epochs exactly.
    reactive: bool,
    /// Minimum `link_ready` among flits this shard posted this epoch
    /// (reset after every bound publication; reactive runs only).
    posted_min: Option<SimTime>,
    /// Host phase clock (`None` = phase timing off).
    clock: Option<fn() -> u64>,
    /// Host-time samples per epoch phase (empty when `clock` is `None`).
    phases: PhaseBreakdown,
    epochs: u64,
    /// Trapped nodes: `(global index, error)`. A trap finishes that
    /// node's traffic; the run keeps going and reports the error at the
    /// end.
    errors: Vec<(usize, ShrimpError)>,
}

impl Shard<'_> {
    fn run(&mut self, barrier: &SpinBarrier, frontier: &TimeFrontier, grid: &ExchangeGrid<Flit>) {
        let clock = self.clock;
        let mut mark = clock.map_or(0, |c| c());
        loop {
            self.epochs += 1;
            // Execute phase: K lookahead windows' worth of sends per
            // node, all paid for with the one barrier crossing below.
            let span = self.schedule.next() * CHUNK;
            if self.reactive {
                self.pump_programs();
            }
            for ni in 0..self.nodes.len() {
                self.execute_chunk(ni, span);
            }
            for dst in 0..self.staging.len() {
                grid.post_batch(self.id, dst, &mut self.staging[dst]);
            }
            let bound = self.publish_bound();
            frontier.publish(self.id, bound);
            self.posted_min = None;
            lap(clock, &mut mark, &mut self.phases.execute);
            barrier.wait();
            lap(clock, &mut mark, &mut self.phases.barrier);

            // Commit phase. The horizon is only meaningful between the
            // two barriers: every shard has published, none has moved on.
            let horizon = frontier.horizon();
            grid.drain_to(self.id, &mut self.incoming);
            for (at, tag, pkt) in self.incoming.drain(..) {
                self.fabric.stage(at, tag, pkt);
            }
            lap(clock, &mut mark, &mut self.phases.merge);
            self.core.commit_due(
                &mut self.fabric,
                &mut Block { nodes: &mut self.nodes, map: &self.map, id: self.id },
                horizon,
            );
            lap(clock, &mut mark, &mut self.phases.commit);
            barrier.wait();
            lap(clock, &mut mark, &mut self.phases.barrier);

            // A `None` horizon means every shard was exhausted when it
            // published, so this commit drained everything in flight.
            if horizon.is_none() {
                debug_assert!(
                    self.fabric.staged_len() == 0,
                    "final commit must drain the staged queue"
                );
                return;
            }
        }
    }

    /// Steps every program whose node received deliveries last epoch
    /// (the inbox its lane collected in commit order) and encodes the
    /// reply sends it emits into the node's trains for this epoch's
    /// execute sweep. Programs are delivery-driven after their initial
    /// step — a node with an empty inbox stays dormant, exactly as the
    /// bound it was excluded from assumed. A trap in a step ends the
    /// node's traffic like a mid-plan kernel trap.
    // lint:hot_path
    fn pump_programs(&mut self) {
        for sn in &mut self.nodes {
            let Lane { node, inbox, .. } = &mut sn.lane;
            if inbox.is_empty() {
                continue;
            }
            if let Some(program) = sn.program.as_deref_mut().filter(|p| !p.finished()) {
                match program.step(node, inbox, &mut self.scratch) {
                    // lint:allow(A1) -- scratch and train list keep their
                    // capacity across steps (the encoder restarts a drained
                    // list in place): steady-state replies never reallocate.
                    Ok(()) => sn.trains.encode_ops(&self.scratch),
                    Err(trap) => {
                        // lint:allow(A1) -- a trap is terminal for the node's
                        // traffic: the cold error path, never the steady state.
                        self.errors.push((sn.index, trap.into()));
                        sn.program = None;
                        sn.trains.clear();
                    }
                }
                self.scratch.clear();
            }
            inbox.clear();
        }
    }

    /// The bound this shard publishes for the crossing. Legacy (all
    /// programs static): the minimum clock of its unexhausted nodes —
    /// the exact pre-program bound, same epochs, same timeline. Reactive:
    /// additionally capped by the earliest staged entry and the earliest
    /// flit posted this epoch (each plus one hop of lookahead), because
    /// a delivery at instant `t` can wake a dormant program whose reply
    /// cannot reach any inbound link before `t + hop` — so committing
    /// through `min + hop` is always safe, wherever in the mesh the
    /// waiting node and the pending traffic live.
    // lint:hot_path
    fn publish_bound(&self) -> Option<SimTime> {
        let mut bound = self
            .nodes
            .iter()
            .filter(|n| !n.trains.exhausted())
            .map(|n| n.lane.node.os().machine().now())
            .min();
        if self.reactive {
            let lookahead = self.fabric.lookahead();
            for t in [self.fabric.next_staged(), self.posted_min].into_iter().flatten() {
                let capped = t + lookahead;
                bound = Some(bound.map_or(capped, |b| b.min(capped)));
            }
        }
        bound
    }

    /// Runs up to `span` sends of node `ni` (the crossing's
    /// `K ·` [`CHUNK`] window), staging its packets. Each train goes to
    /// the shared executor, which may calibrate and replay it; a train
    /// that crosses the window edge is clipped there and resumes next
    /// crossing. Windows count messages, not trains, so epoch boundaries
    /// — and hence the timeline — are the same whether or not batching
    /// engages.
    // lint:hot_path
    fn execute_chunk(&mut self, ni: usize, span: usize) {
        let tracing = self.core.tracing();
        let sn = &mut self.nodes[ni];
        let mut budget = span as u64;
        while budget > 0 {
            let Some(&(op, left)) = sn.trains.list.get(sn.trains.next) else {
                return;
            };
            let count = left.min(budget);
            let mut host = ShardHost {
                lane: &mut sn.lane,
                fabric: &mut self.fabric,
                map: &self.map,
                staging: &mut self.staging,
                posted_min: &mut self.posted_min,
                reactive: self.reactive,
                tracing,
            };
            if let Err(trap) = self.tx.train(&mut host, &op, count) {
                // lint:allow(A1) -- a trap is terminal for the node's
                // traffic: the cold error path, never the steady state.
                self.errors.push((sn.index, trap.into()));
                sn.program = None;
                sn.trains.clear();
                return;
            }
            sn.trains.advance(count);
            budget -= count;
        }
    }
}

impl Multicomputer {
    /// Runs `plans` to completion across `threads` worker threads using
    /// conservative epoch synchronization. With `threads = 1` the single
    /// shard runs inline (no thread is spawned). Any thread count runs the
    /// serial driver's sender executor and delivery core; only the commit
    /// schedule differs (epoch boundaries instead of after every send),
    /// so independent flows land on the serial driver's timeline. The
    /// simulated timeline, receiver memory, per-node clocks and fabric
    /// statistics are identical at any thread count (the count is clamped
    /// to `[1, node_count]`).
    ///
    /// Quiesces in-flight traffic first; plans for the same node
    /// concatenate in argument order. Empty `plans` are exactly the
    /// serial no-op: one epoch, no messages, state untouched.
    ///
    /// # Errors
    ///
    /// A bad node index fails up front. A kernel trap mid-plan finishes
    /// that node's plan early; the rest of the machine runs to
    /// completion, state is reassembled, and the trap of the
    /// lowest-indexed trapped node is returned.
    pub fn run(
        &mut self,
        plans: &[NodePlan],
        threads: usize,
    ) -> Result<ParallelReport, ShrimpError> {
        // One read pass encodes the borrowed plans into trains; no
        // message is copied.
        let mut trains = vec![Trains::default(); self.lanes.len()];
        for plan in plans {
            self.check_node(plan.node)?;
            trains[plan.node].encode_ops(&plan.ops);
        }
        self.run_until_quiet();
        let programs = trains.iter().map(|_| None).collect();
        self.run_sharded(trains, programs, false, Vec::new(), threads)
    }

    /// Runs reactive traffic programs to completion across `threads`
    /// worker threads — the program-driven generalization of
    /// [`Multicomputer::run`].
    ///
    /// Each program is stepped once up front (empty inbox) to emit its
    /// opening sends, then re-stepped at every epoch boundary at which
    /// its node received deliveries, with those deliveries surfaced in
    /// commit order. Reply injection is therefore a pure function of the
    /// simulated timeline, and the timeline, `state_digest` and trace
    /// bytes are bit-identical at any thread count. The programs are
    /// borrowed for the run and keep their final state (for latency
    /// histograms and the like); at most one program per node.
    ///
    /// # Panics
    ///
    /// Panics if two programs name the same node.
    ///
    /// # Errors
    ///
    /// A bad node index fails up front. A kernel trap in a program step
    /// or mid-plan finishes that node's traffic; the rest of the machine
    /// runs to completion, state is reassembled, and the trap of the
    /// lowest-indexed trapped node is returned.
    pub fn run_programs(
        &mut self,
        programs: &mut [ProgramPlan],
        threads: usize,
    ) -> Result<ParallelReport, ShrimpError> {
        let n = self.lanes.len();
        for pp in programs.iter() {
            self.check_node(pp.node)?;
        }
        self.run_until_quiet();
        let reactive = programs.iter().any(|pp| pp.program.reactive());
        let mut progs: Vec<Option<&mut dyn TrafficProgram>> = (0..n).map(|_| None).collect();
        for pp in programs.iter_mut() {
            let node = pp.node;
            let taken = progs[node].replace(&mut *pp.program);
            assert!(taken.is_none(), "node {node} has more than one traffic program");
        }
        // Every initial step runs against an empty inbox while the
        // machine is still assembled: opening emissions seed the
        // schedule exactly as plan depths would.
        let mut trains = vec![Trains::default(); n];
        let mut errors = Vec::new();
        let mut scratch = Vec::new();
        for (node, slot) in progs.iter_mut().enumerate() {
            let Some(program) = slot else { continue };
            let lane = &mut self.lanes[node];
            if reactive {
                lane.collect = true;
                lane.inbox.reserve(2 * CHUNK);
            }
            match program.step(&mut lane.node, &[], &mut scratch) {
                Ok(()) => trains[node].encode_ops(&scratch),
                Err(trap) => {
                    errors.push((node, trap.into()));
                    *slot = None;
                }
            }
            scratch.clear();
        }
        self.run_sharded(trains, progs, reactive, errors, threads)
    }

    /// Disassembles the machine into shards, runs the epoch loop until
    /// every node's trains and programs are drained, and reassembles.
    /// `trains` and `programs` hold one entry per node; `errors` carries
    /// traps from the initial program steps.
    fn run_sharded(
        &mut self,
        trains: Vec<Trains>,
        programs: Vec<Option<&mut dyn TrafficProgram>>,
        reactive: bool,
        mut errors: Vec<(usize, ShrimpError)>,
        threads: usize,
    ) -> Result<ParallelReport, ShrimpError> {
        let n = self.lanes.len();
        let threads = threads.clamp(1, n);
        // The windows-per-crossing schedule is fixed by the initial
        // trains before the machine disassembles; every shard gets a
        // clone.
        let deepest = trains
            .iter()
            .zip(&programs)
            .map(|(t, p)| t.messages() + p.as_ref().map_or(0, |p| p.planned_hint()))
            .max()
            .unwrap_or(0);
        let schedule = WindowSchedule::new(deepest, self.epoch_windows);

        // Disassemble: lanes (nodes + receive-side state) move to the
        // shards that own their blocks (see `ShardMap`), the fabric
        // splits into per-shard link state, and each shard gets its own
        // instance of the delivery core. Scratch queues are sized for a
        // full epoch of the largest block up front so the epoch loop
        // never grows them.
        let map = ShardMap::new(n, threads);
        let per_shard = n.div_ceil(threads);
        let mut shards: Vec<Shard> = self
            .fabric
            .split(threads)
            .into_iter()
            .enumerate()
            .map(|(id, fabric)| Shard {
                id,
                map: map.clone(),
                nodes: Vec::with_capacity(map.block(id).len()),
                fabric,
                core: DeliveryCore::new(self.core.passive, {
                    // Full global capacity per shard: each shard's retained
                    // tail is then a superset of its contribution to the
                    // merged newest-capacity window, so the merge result is
                    // independent of the sharding.
                    let mut r = FlightRecorder::new(self.core.recorder.capacity());
                    r.set_enabled(self.core.recorder.is_enabled());
                    r
                }),
                tx: Executor::new(self.burst()),
                staging: (0..threads).map(|_| Vec::with_capacity(CHUNK * per_shard)).collect(),
                incoming: Vec::with_capacity(CHUNK * n),
                scratch: Vec::new(),
                schedule: schedule.clone(),
                clock: self.phase_clock,
                phases: PhaseBreakdown::default(),
                epochs: 0,
                errors: Vec::new(),
                reactive,
                posted_min: None,
            })
            .collect();
        let work = std::mem::take(&mut self.lanes).into_iter().zip(trains).zip(programs);
        for (index, ((lane, trains), program)) in work.enumerate() {
            shards[map.owner(index)].nodes.push(ShardNode { index, lane, trains, program });
        }

        let barrier = SpinBarrier::new(threads);
        let frontier = TimeFrontier::new(threads);
        // Lanes pre-reserve one window's worth of literal sends per
        // owned node; batch posts then reuse capacity in steady state
        // (runs cross as single entries, so burst mode needs far less).
        let grid: ExchangeGrid<Flit> = ExchangeGrid::with_lane_capacity(threads, CHUNK * per_shard);
        if threads == 1 {
            // The degenerate serial case: run the one shard inline — the
            // barriers and frontier are trivially uncontended and no
            // thread is spawned.
            shards[0].run(&barrier, &frontier, &grid);
        } else {
            let (barrier, frontier, grid) = (&barrier, &frontier, &grid);
            let (first, rest) = shards.split_at_mut(1);
            std::thread::scope(|s| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .map(|shard| s.spawn(move || shard.run(barrier, frontier, grid)))
                    .collect();
                first[0].run(barrier, frontier, grid);
                for h in handles {
                    h.join().expect("shard thread panicked");
                }
            });
        }
        debug_assert!(grid.is_empty(), "all exchanged packets must be committed");

        // Reassemble. Blocks are contiguous and in shard order, so the
        // lanes come back in node order.
        let mut report = ParallelReport::default();
        let mut fabric_shards = Vec::with_capacity(threads);
        let mut recorders = Vec::with_capacity(threads);
        self.lanes.reserve_exact(n);
        self.phases = PhaseBreakdown::default();
        for shard in shards {
            self.phases.merge_from(&shard.phases);
            recorders.push(shard.core.recorder);
            report.epochs = report.epochs.max(shard.epochs);
            report.messages += shard.tx.messages;
            report.packets += shard.tx.packets;
            self.core.dropped += shard.core.dropped;
            self.core.delivered += shard.core.delivered;
            self.core.runs_committed += shard.core.runs_committed;
            self.core.run_splits += shard.core.run_splits;
            errors.extend(shard.errors);
            for mut sn in shard.nodes {
                debug_assert_eq!(sn.index, self.lanes.len(), "lanes return in node order");
                sn.lane.collect = false;
                sn.lane.inbox.clear();
                self.lanes.push(sn.lane);
            }
            fabric_shards.push(shard.fabric);
        }
        self.fabric.merge(fabric_shards, map.owners());
        // Deterministic trace merge: spans re-sort into the same
        // `(link_ready, id)` order the commit loops applied them in, so
        // the merged recorder is bit-identical at any thread count.
        self.core.recorder.absorb(recorders);
        self.last_epochs = report.epochs;
        // A node traps at most once (a trap ends its traffic), and the
        // lowest-indexed node's trap is the one reported.
        match errors.into_iter().min_by_key(|&(index, _)| index) {
            Some((_, error)) => Err(error),
            None => Ok(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::StreamProgram;
    use crate::MulticomputerConfig;
    use shrimp_os::Trap;

    /// An `n`-node machine with disjoint sender→receiver pairs
    /// (`2p → 2p+1`) and a plan of `msgs` sends of `bytes` bytes per pair.
    fn paired_stream(n: u16, msgs: usize, bytes: u64) -> (Multicomputer, Vec<NodePlan>) {
        let mut mc = Multicomputer::new(n, MulticomputerConfig::default());
        let mut plans = Vec::new();
        for p in 0..(n as usize / 2) {
            let (s, r) = (2 * p, 2 * p + 1);
            let spid = mc.spawn_process(s);
            let rpid = mc.spawn_process(r);
            mc.map_user_buffer(s, spid, 0x10_0000, 2).unwrap();
            mc.map_user_buffer(r, rpid, 0x40_0000, 2).unwrap();
            let dev = mc.export(r, rpid, VirtAddr::new(0x40_0000), 2, s, spid).unwrap();
            let fill: Vec<u8> = (0..bytes).map(|i| (i as u8) ^ (s as u8)).collect();
            mc.write_user(s, spid, VirtAddr::new(0x10_0000), &fill).unwrap();
            plans.push(NodePlan {
                node: s,
                ops: vec![
                    SendOp {
                        pid: spid,
                        src_va: VirtAddr::new(0x10_0000),
                        dev_page: dev,
                        dev_off: 0,
                        nbytes: bytes,
                        class: PacketClass::User,
                    };
                    msgs
                ],
            });
        }
        (mc, plans)
    }

    /// Timeline fingerprint: every node clock, delivery time and EISA
    /// state, plus fabric counters.
    fn fingerprint(mc: &Multicomputer) -> Vec<u64> {
        let mut v = Vec::new();
        for i in 0..mc.node_count() {
            v.push(mc.node(i).os().machine().now().as_nanos());
            v.push(mc.last_delivery(i).as_nanos());
        }
        v.push(mc.fabric().stats().get("packets"));
        v.push(mc.fabric().stats().get("payload_bytes"));
        v.push(mc.dropped_packets());
        v
    }

    #[test]
    fn shard_map_blocks_are_contiguous_balanced_and_round_trip() {
        for n in 1..=64usize {
            for t in 1..=n.min(8) {
                let map = ShardMap::new(n, t);
                assert_eq!(map.owners().len(), n, "n={n} t={t}: one owner per node");
                let mut owners_seen = vec![0usize; n];
                let mut next = 0;
                for s in 0..t {
                    let block = map.block(s);
                    assert_eq!(block.start, next, "n={n} t={t}: block {s} is not contiguous");
                    assert!(!block.is_empty(), "n={n} t={t}: shard {s} is empty");
                    for i in block.clone() {
                        owners_seen[i] += 1;
                        assert_eq!(map.owner(i), s, "n={n} t={t}: node {i} owner");
                        assert_eq!(map.owners()[i], s, "n={n} t={t}: node {i} owner table");
                        let slot = map.slot(i);
                        assert!(slot < block.len(), "n={n} t={t}: node {i} slot out of block");
                        assert_eq!(block.start + slot, i, "n={n} t={t}: lane lookup round-trip");
                    }
                    if n % (2 * t) == 0 {
                        let even = block.clone().filter(|i| i % 2 == 0).count();
                        assert_eq!(2 * even, block.len(), "n={n} t={t}: shard {s} parity split");
                    }
                    next = block.end;
                }
                assert_eq!(next, n, "n={n} t={t}: blocks must end at the last node");
                assert!(owners_seen.iter().all(|&c| c == 1), "n={n} t={t}: exactly one owner");
                let sizes = (0..t).map(|s| map.block(s).len());
                let (lo, hi) = (sizes.clone().min().unwrap(), sizes.max().unwrap());
                assert!(
                    hi - lo <= 1,
                    "n={n} t={t}: block sizes {lo}..={hi} differ by more than one"
                );
            }
        }
    }

    #[test]
    fn window_schedule_tracks_the_deepest_plan() {
        // The schedule is the old per-node sweep reduced to its maximum:
        // the K sequence must be the one the full prediction vector gave.
        let reference = |mut pred: Vec<usize>, forced: Option<usize>| {
            let mut ks = Vec::new();
            loop {
                let k = match forced {
                    Some(k) => k.clamp(1, MAX_EPOCH_WINDOWS),
                    None => {
                        let deepest = pred.iter().copied().max().unwrap_or(0);
                        deepest.div_ceil(CHUNK).clamp(1, MAX_EPOCH_WINDOWS)
                    }
                };
                ks.push(k);
                for rem in &mut pred {
                    *rem = rem.saturating_sub(k * CHUNK);
                }
                if pred.iter().all(|&r| r == 0) {
                    return ks;
                }
            }
        };
        let plans: [&[usize]; 5] =
            [&[], &[0, 0], &[5, 17, 3], &[4096, 1, 2000, 15], &[MAX_EPOCH_WINDOWS * CHUNK * 3 + 1]];
        for pred in plans {
            for forced in [None, Some(0), Some(1), Some(3), Some(10 * MAX_EPOCH_WINDOWS)] {
                let want = reference(pred.to_vec(), forced);
                let deepest = pred.iter().copied().max().unwrap_or(0);
                let mut schedule = WindowSchedule::new(deepest, forced);
                let got: Vec<usize> = want.iter().map(|_| schedule.next()).collect();
                assert_eq!(got, want, "pred={pred:?} forced={forced:?}");
                assert_eq!(schedule.deepest, 0, "pred={pred:?} forced={forced:?}");
            }
        }
    }

    #[test]
    fn thread_counts_cannot_change_the_timeline() {
        let mut prints = Vec::new();
        for threads in [1usize, 2, 3, 4] {
            let (mut mc, plans) = paired_stream(8, 40, 1024);
            let report = mc.run(&plans, threads).unwrap();
            assert_eq!(report.messages, 4 * 40);
            prints.push((fingerprint(&mc), report));
        }
        for (p, r) in &prints[1..] {
            assert_eq!(p, &prints[0].0, "timeline must be thread-count independent");
            assert_eq!(r, &prints[0].1, "report must be thread-count independent");
        }
    }

    #[test]
    fn parallel_matches_serial_driver_on_streams() {
        let msgs = 30;
        let (mut serial, plans) = paired_stream(4, msgs, 512);
        let (mut par, _) = paired_stream(4, msgs, 512);
        for plan in &plans {
            for op in &plan.ops {
                serial
                    .send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes)
                    .unwrap();
            }
        }
        serial.run_until_quiet();
        par.run(&plans, 2).unwrap();
        assert_eq!(fingerprint(&par), fingerprint(&serial));
        // Receiver memory matches too.
        for r in [1usize, 3] {
            let pid = Pid::new(1);
            let a = serial.read_user(r, pid, VirtAddr::new(0x40_0000), 512).unwrap();
            let b = par.read_user(r, pid, VirtAddr::new(0x40_0000), 512).unwrap();
            assert_eq!(a, b, "receiver {r} memory diverged");
        }
    }

    #[test]
    fn delivered_data_is_correct() {
        let (mut mc, plans) = paired_stream(2, 5, 2048);
        mc.run(&plans, 2).unwrap();
        let pid = Pid::new(1);
        let got = mc.read_user(1, pid, VirtAddr::new(0x40_0000), 2048).unwrap();
        let want: Vec<u8> = (0..2048u64).map(|i| i as u8).collect();
        assert_eq!(got, want);
        assert_eq!(mc.dropped_packets(), 0);
    }

    #[test]
    fn bad_node_index_is_rejected() {
        let (mut mc, _) = paired_stream(2, 1, 64);
        let err = mc.run(&[NodePlan { node: 9, ops: Vec::new() }], 1).unwrap_err();
        assert_eq!(err, ShrimpError::NoSuchNode(9));
    }

    #[test]
    fn trap_mid_plan_surfaces_after_the_run() {
        let (mut mc, mut plans) = paired_stream(2, 3, 64);
        // Unmapped source address: the kernel traps on the second op.
        plans[0].ops[1].src_va = VirtAddr::new(0xdead_0000);
        let err = mc.run(&plans, 2).unwrap_err();
        assert!(matches!(err, ShrimpError::Trap(Trap::SegFault { .. })), "got {err:?}");
        // Ops before the trap still landed.
        let pid = Pid::new(1);
        let got = mc.read_user(1, pid, VirtAddr::new(0x40_0000), 64).unwrap();
        assert_eq!(got, (0..64).map(|i| i as u8).collect::<Vec<u8>>());
    }

    #[test]
    fn empty_plans_are_the_serial_noop() {
        // The empty workload must behave identically through both entry
        // points: same report at every thread count, same digest as the
        // serial driver's quiesce on an identically built machine.
        let (mut serial, _) = paired_stream(4, 1, 64);
        serial.run_until_quiet();
        let want = serial.state_digest();
        for threads in [1usize, 2, 4] {
            let (mut mc, _) = paired_stream(4, 1, 64);
            let report = mc.run(&[], threads).unwrap();
            assert_eq!(report, ParallelReport { epochs: 1, messages: 0, packets: 0 });
            assert_eq!(mc.state_digest(), want, "empty run diverged at {threads} threads");
        }
    }

    #[test]
    fn programs_reproduce_the_plan_timeline() {
        // A `StreamProgram` per node must be byte-for-byte the plan path:
        // plans and programs reach the train encoder from different
        // callers.
        let (mut a, plans) = paired_stream(4, 10, 256);
        let (mut b, _) = paired_stream(4, 10, 256);
        let ra = a.run(&plans, 2).unwrap();
        let mut programs: Vec<ProgramPlan> = plans
            .iter()
            .map(|p| ProgramPlan {
                node: p.node,
                program: Box::new(StreamProgram::new(p.ops.clone())),
            })
            .collect();
        let rb = b.run_programs(&mut programs, 2).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.state_digest(), b.state_digest());
        for pp in &programs {
            assert!(pp.program.finished(), "stream on node {} not drained", pp.node);
        }
    }

    #[test]
    fn rpc_ping_pong_is_thread_count_invariant() {
        use crate::program::{RpcClientProgram, RpcServerProgram};

        let build = || {
            let mut mc = Multicomputer::new(4, MulticomputerConfig::default());
            let mut programs = Vec::new();
            for p in 0..2usize {
                let (c, s) = (2 * p, 2 * p + 1);
                let cpid = mc.spawn_process(c);
                let spid = mc.spawn_process(s);
                mc.map_user_buffer(c, cpid, 0x10_0000, 2).unwrap();
                mc.map_user_buffer(s, spid, 0x40_0000, 2).unwrap();
                // Client's request buffer maps into the server; the
                // server's reply buffer maps back into the client.
                let req_dev = mc.export(s, spid, VirtAddr::new(0x40_0000), 1, c, cpid).unwrap();
                let rep_dev = mc.export(c, cpid, VirtAddr::new(0x10_1000), 1, s, spid).unwrap();
                let fill: Vec<u8> = (0..256).map(|i| i as u8 ^ c as u8).collect();
                mc.write_user(c, cpid, VirtAddr::new(0x10_0000), &fill).unwrap();
                mc.write_user(s, spid, VirtAddr::new(0x40_1000), &fill).unwrap();
                let req_paddr = mc.user_paddr(s, spid, VirtAddr::new(0x40_0000)).unwrap();
                let rep_paddr = mc.user_paddr(c, cpid, VirtAddr::new(0x10_1000)).unwrap();
                let request = SendOp {
                    pid: cpid,
                    src_va: VirtAddr::new(0x10_0000),
                    dev_page: req_dev,
                    dev_off: 0,
                    nbytes: 256,
                    class: PacketClass::User,
                };
                let reply = SendOp {
                    pid: spid,
                    src_va: VirtAddr::new(0x40_1000),
                    dev_page: rep_dev,
                    dev_off: 0,
                    nbytes: 256,
                    class: PacketClass::User,
                };
                programs.push(ProgramPlan {
                    node: c,
                    program: Box::new(RpcClientProgram::closed_loop(request, 6, rep_paddr, 256)),
                });
                programs.push(ProgramPlan {
                    node: s,
                    program: Box::new(RpcServerProgram::new(
                        req_paddr,
                        256,
                        vec![(req_paddr, reply)],
                        6,
                    )),
                });
            }
            (mc, programs)
        };

        let mut prints = Vec::new();
        for threads in [1usize, 2, 4] {
            let (mut mc, mut programs) = build();
            let report = mc.run_programs(&mut programs, threads).unwrap();
            for pp in &programs {
                assert!(pp.program.finished(), "node {} program stalled", pp.node);
            }
            prints.push((fingerprint(&mc), mc.state_digest(), report));
        }
        for p in &prints[1..] {
            assert_eq!(p, &prints[0], "RPC timeline must be thread-count independent");
        }
    }
}
