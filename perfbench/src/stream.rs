//! Stream workloads: sender→receiver flows of 4 KB deliberate-update
//! trains (`pair_stream`, `mesh_stream_t2`).
//!
//! Senders sit on even nodes and receivers on odd nodes; the seed picks
//! which receiver each sender streams to (one sender per receiver), the
//! length of every train (stratified over a range) and the payload bytes
//! of every job. A job sends
//! every flow's trains once. Between jobs the payloads are rewritten, and
//! the warm-up sends bytes of no job, so each job's receiver pages prove
//! that job's delivery.

use shrimp::{Multicomputer, NodePlan, PacketClass, SendOp, ShrimpError};
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_os::Pid;
use shrimp_sim::{SimTime, SplitMix64};

use crate::spans::{Layer, SpanLog};
use crate::{mix, seeded_page, stratified, Checks, Driver};

/// Message size of every stream send: one 4 KB page.
pub const MSG_BYTES: u64 = PAGE_SIZE;
const SRC_VA: u64 = 0x10_0000;
const DST_VA: u64 = 0x40_0000;

/// The shape of a stream workload.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// Node count (half senders, half receivers).
    pub nodes: u16,
    /// Trains each flow sends per job.
    pub trains_per_flow: usize,
    /// Range `[lo, hi)` train lengths (messages) are stratified over.
    pub train_len: (u64, u64),
    /// Per-node memory in pages (`None` = the machine default).
    pub mem_pages: Option<u64>,
    /// How jobs are driven.
    pub driver: Driver,
}

#[derive(Clone, Debug)]
struct Flow {
    send: usize,
    sender: Pid,
    recv: usize,
    receiver: Pid,
    dev_page: u64,
    trains: Vec<u64>,
}

/// The job number of the warm-up's payload, which no measured job uses.
const WARM: u64 = u64::MAX;

/// A set-up stream machine plus the workload's inputs.
pub struct StreamRig {
    mc: Multicomputer,
    flows: Vec<Flow>,
    plans: Vec<NodePlan>,
    driver: Driver,
    seed: u64,
    /// Job whose payload the senders hold.
    job: u64,
    /// Simulated start of the current job (after `prepare`'s barrier).
    start: SimTime,
    /// Serial driver: each train's completion time, recorded in the job.
    latencies: Vec<u64>,
    delivered_before: u64,
    /// Flip a byte of every expected payload (proves the check is live).
    corrupt: bool,
    /// Keep the previous job's payload (proves a lost copy is caught).
    stale: bool,
}

/// The payload of `flow` in job `job`: seeded bytes, distinct per job.
fn payload(seed: u64, job: u64, flow: usize) -> Vec<u8> {
    seeded_page(mix(seed, mix(job, flow as u64)))
}

impl StreamRig {
    /// Builds, maps, exports, fills and warms the machine for `seed`,
    /// recording one span per setup phase in `log`.
    ///
    /// # Errors
    ///
    /// Any kernel trap during setup.
    pub fn setup(spec: &StreamSpec, seed: u64, log: &mut SpanLog) -> Result<Self, ShrimpError> {
        let mut rng = SplitMix64::new(seed);
        let pairs = usize::from(spec.nodes) / 2;
        let mut receivers: Vec<usize> = (0..pairs).map(|p| 2 * p + 1).collect();
        rng.shuffle(&mut receivers);

        let span = log.enter(Layer::SetupSpawn);
        let mut mc = match spec.mem_pages {
            Some(pages) => Multicomputer::with_machine_config(
                spec.nodes,
                MachineConfig { mem_bytes: pages * PAGE_SIZE, ..MachineConfig::default() },
            ),
            None => Multicomputer::new(spec.nodes, Default::default()),
        };
        let (lo, hi) = spec.train_len;
        let lengths = stratified(&mut rng, pairs * spec.trains_per_flow, lo, hi);
        let mut flows = Vec::with_capacity(pairs);
        for (p, (&recv, trains)) in
            receivers.iter().zip(lengths.chunks(spec.trains_per_flow)).enumerate()
        {
            flows.push(Flow {
                send: 2 * p,
                sender: mc.spawn_process(2 * p),
                recv,
                receiver: mc.spawn_process(recv),
                dev_page: 0,
                trains: trains.to_vec(),
            });
        }
        log.exit(span);

        let span = log.enter(Layer::SetupMap);
        for f in &flows {
            mc.map_user_buffer(f.send, f.sender, SRC_VA, 1)?;
            mc.map_user_buffer(f.recv, f.receiver, DST_VA, 1)?;
        }
        log.exit(span);

        let span = log.enter(Layer::SetupExport);
        for f in &mut flows {
            f.dev_page =
                mc.export(f.recv, f.receiver, VirtAddr::new(DST_VA), 1, f.send, f.sender)?;
        }
        log.exit(span);

        let mut rig = StreamRig {
            mc,
            plans: Vec::new(),
            flows,
            driver: spec.driver,
            seed,
            job: WARM,
            start: SimTime::ZERO,
            latencies: Vec::new(),
            delivered_before: 0,
            corrupt: false,
            stale: false,
        };
        let span = log.enter(Layer::SetupFill);
        rig.fill(WARM)?;
        log.exit(span);

        // Warm every flow: proxy mappings, dirty bits, TLB, NIC scratch.
        let span = log.enter(Layer::SetupWarm);
        for f in &rig.flows {
            rig.mc.send(f.send, f.sender, VirtAddr::new(SRC_VA), f.dev_page, 0, MSG_BYTES)?;
        }
        rig.mc.run_until_quiet();
        log.exit(span);

        // Inputs, not work: the plans and the latency buffer are built
        // before any job is timed.
        rig.plans = rig
            .flows
            .iter()
            .map(|f| NodePlan {
                node: f.send,
                ops: f
                    .trains
                    .iter()
                    .flat_map(|&len| std::iter::repeat_n(rig.op(f), len as usize))
                    .collect(),
            })
            .collect();
        rig.latencies.reserve(rig.flows.iter().map(|f| f.trains.len()).sum());
        rig.delivered_before = rig.delivered();
        Ok(rig)
    }

    fn op(&self, f: &Flow) -> SendOp {
        SendOp {
            pid: f.sender,
            src_va: VirtAddr::new(SRC_VA),
            dev_page: f.dev_page,
            dev_off: 0,
            nbytes: MSG_BYTES,
            class: PacketClass::User,
        }
    }

    fn fill(&mut self, job: u64) -> Result<(), ShrimpError> {
        for (i, f) in self.flows.iter().enumerate() {
            let bytes = payload(self.seed, job, i);
            self.mc.write_user(f.send, f.sender, VirtAddr::new(SRC_VA), &bytes)?;
        }
        self.job = job;
        Ok(())
    }

    fn delivered(&self) -> u64 {
        self.mc.metrics_snapshot().get("delivery", "delivered", None).unwrap_or(0)
    }

    /// The driver jobs run through.
    pub fn driver(&self) -> Driver {
        self.driver
    }

    /// The machine.
    pub fn mc(&self) -> &Multicomputer {
        &self.mc
    }

    /// The machine, mutably (tracing switches).
    pub fn mc_mut(&mut self) -> &mut Multicomputer {
        &mut self.mc
    }

    /// Messages one job sends.
    pub fn job_messages(&self) -> u64 {
        self.flows.iter().flat_map(|f| &f.trains).sum()
    }

    /// Readies job `job`: payloads for the job, then a barrier so every
    /// node starts the job at one simulated instant. Not timed.
    ///
    /// # Errors
    ///
    /// Any kernel trap writing the payloads.
    pub fn prepare(&mut self, job: u64) -> Result<(), ShrimpError> {
        if self.stale {
            self.job = job;
        } else if self.job != job {
            self.fill(job)?;
        }
        self.start = self.mc.barrier_sync();
        self.latencies.clear();
        Ok(())
    }

    /// Runs one job through `driver` (the rig's own when `None`). This
    /// is the timed region.
    ///
    /// # Errors
    ///
    /// Any kernel trap.
    pub fn job(&mut self, driver: Option<Driver>, log: &mut SpanLog) -> Result<(), ShrimpError> {
        match driver.unwrap_or(self.driver) {
            Driver::Serial { burst } => {
                self.mc.set_burst(burst);
                for f in &self.flows {
                    for &len in &f.trains {
                        let t0 = self.mc.node(f.send).os().machine().now();
                        let span = log.enter(Layer::SendBurst);
                        let sent = self.mc.send_burst(
                            f.send,
                            f.sender,
                            VirtAddr::new(SRC_VA),
                            f.dev_page,
                            0,
                            MSG_BYTES,
                            len,
                        );
                        log.exit(span);
                        sent?;
                        let done = self.mc.last_delivery(f.recv);
                        self.latencies.push(done.saturating_duration_since(t0).as_nanos());
                    }
                }
                let span = log.enter(Layer::Drain);
                self.mc.run_until_quiet();
                log.exit(span);
                self.mc.set_burst(true);
            }
            Driver::Parallel { threads } => {
                let span = log.enter(Layer::Run);
                let ran = self.mc.run(&self.plans, threads);
                log.exit(span);
                ran?;
                // One train per flow: a flow's completion is its train's.
                for f in &self.flows {
                    let done = self.mc.last_delivery(f.recv);
                    self.latencies.push(done.saturating_duration_since(self.start).as_nanos());
                }
            }
        }
        Ok(())
    }

    /// Flips a byte of every expected payload, to prove the payload check
    /// is live.
    pub fn corrupt_expected(&mut self) {
        self.corrupt = true;
    }

    /// Stops rewriting the payloads between jobs, so every job sends the
    /// bytes its receivers already hold, to prove the payload check
    /// catches a copy that never landed.
    pub fn send_stale(&mut self) {
        self.stale = true;
    }

    /// Simulated outcome of the last job: `(makespan ns, completion time
    /// of every train, ns)`.
    pub fn outcome(&self) -> (u64, &[u64]) {
        let end = (0..self.mc.node_count())
            .map(|i| self.mc.node(i).os().machine().now().max(self.mc.last_delivery(i)))
            .max()
            .unwrap_or(self.start);
        (end.saturating_duration_since(self.start).as_nanos(), &self.latencies)
    }

    /// Checks the last job's outputs: every receiver page holds its
    /// sender's payload for this job, every message was delivered, and
    /// nothing was dropped.
    pub fn check(&mut self, checks: &mut Checks) {
        for (i, f) in self.flows.iter().enumerate() {
            let mut want = payload(self.seed, self.job, i);
            if self.corrupt {
                want[0] ^= 0xff;
            }
            let got = self.mc.read_user(f.recv, f.receiver, VirtAddr::new(DST_VA), MSG_BYTES);
            checks.expect(got.as_deref() == Ok(&want[..]), || {
                format!(
                    "job {}: node {} page differs from node {}'s payload",
                    self.job, f.recv, f.send
                )
            });
        }
        let delivered = self.delivered();
        let sent = delivered - self.delivered_before;
        self.delivered_before = delivered;
        checks.expect(sent == self.job_messages(), || {
            format!("job {}: {sent} of {} messages delivered", self.job, self.job_messages())
        });
        let drops = self.mc.dropped_packets() + self.mc.fabric().fabric_drops();
        checks.expect(drops == 0, || format!("job {}: {drops} packets dropped", self.job));
    }
}
