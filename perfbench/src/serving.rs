//! `tenant_serving`: closed-loop request/reply between tenant processes
//! that contend for a NIPT holding a quarter of them.
//!
//! Node `2p` is a client and node `2p+1` its server; each side runs one
//! process per tenant, with two outbound payload pages and an exported
//! one-page window. A client keeps `window` requests outstanding, each
//! to a different tenant: tenant `t` belongs to window slot
//! `t % window`, and a slot issues its next request only when its reply
//! lands, a closed loop in simulated time. The seed picks each client's
//! tenant order and every request's size (16 B to one page, stratified
//! so each slot carries the same load); a server
//! answers each request with that many bytes of its tenant's reply page.
//! Every request goes through `NiptDirectory::ensure`, so demand paging of
//! the NIPT (evict, revoke, re-import) runs throughout.
//!
//! A tenant's sends alternate between its two payload pages, whose bytes
//! differ, and a tenant's messages are strictly sequential. So each
//! message differs from the bytes its window held before, and the
//! receiver, which checks every message as it lands against the page it
//! is due, catches a copy that never landed.

use std::any::Any;

use shrimp::{
    DeliveryEvent, Multicomputer, MulticomputerConfig, NiptDirectory, PacketClass, ProgramPlan,
    SendOp, ShrimpError, ShrimpNode, TrafficProgram,
};
use shrimp_machine::MachineConfig;
use shrimp_mem::{PhysAddr, VirtAddr, PAGE_SIZE};
use shrimp_net::NodeId;
use shrimp_os::{NodeConfig, Pid, Trap};
use shrimp_sim::{SimTime, SplitMix64};

use crate::spans::{Layer, SpanLog};
use crate::{mix, seeded_page, stratified, Checks};

const SRC_VA: u64 = 0x10_0000;
const WINDOW_VA: u64 = 0x40_0000;
/// Raw spans each program keeps between two absorbs into the run's log.
const PROGRAM_SPANS: usize = 1 << 12;

/// The shape of the serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServingSpec {
    /// Node count (half clients, half servers).
    pub nodes: u16,
    /// Tenant processes per client (and per server).
    pub tenants: usize,
    /// Requests each client keeps outstanding, to distinct tenants.
    pub window: usize,
    /// Requests each client issues per job.
    pub requests: usize,
    /// Worker threads for `run_programs`.
    pub threads: usize,
}

/// Payload page `page` (0 or 1) of tenant `t` of pair `p`, which sends
/// requests (`reply = false`) or answers with replies (`reply = true`):
/// seeded bytes.
fn page_bytes(seed: u64, p: usize, t: usize, reply: bool, page: usize) -> Vec<u8> {
    let tag = (t as u64) << 2 | u64::from(reply) << 1 | page as u64;
    seeded_page(mix(seed, mix(p as u64, tag)))
}

/// A tenant's two payload pages, as sent or as a receiver expects them.
type Pages = [Vec<u8>; 2];

/// One side of a tenant's strictly sequential message stream: which of
/// its two payload pages it sends next, and which of its peer's it
/// expects next.
#[derive(Clone, Copy, Debug, Default)]
struct Alternation {
    /// Payload page of the next send.
    send: usize,
    /// Payload page the next message to land must hold.
    due: usize,
}

impl Alternation {
    /// Where the next send starts: the page after the previous send's or,
    /// with `stale`, the previous send's again, so the receiver's window
    /// keeps the bytes it holds.
    fn next_send(&mut self, stale: bool) -> u64 {
        let page = if stale { self.send ^ 1 } else { self.send };
        self.send = page ^ 1;
        SRC_VA + page as u64 * PAGE_SIZE
    }

    /// Whether `landed` holds the first `landed.len()` bytes of the page
    /// due; the next message is due on the other page.
    fn check(&mut self, expect: &Pages, landed: Option<&[u8]>) -> bool {
        let want = &expect[self.due];
        self.due ^= 1;
        landed.is_some_and(|l| want.get(..l.len()) == Some(l))
    }
}

#[derive(Debug)]
struct ClientTenant {
    pid: Pid,
    handle: usize,
    reply_paddr: PhysAddr,
    class: PacketClass,
    turn: Alternation,
    /// The server tenant's reply pages, as the check expects them.
    expect: Pages,
}

/// One slot of a client's window: the tenants `t` with
/// `t % window == slot`, their NIPT directory, and at most one request
/// in flight. A slot issues again only after its reply landed, so its
/// previous request's send has executed: evicting that tenant's mapping
/// (the directory only picks victims among its own tenants) can never
/// revoke a grant a queued send still needs.
#[derive(Debug)]
struct Slot {
    dir: NiptDirectory,
    /// This job's requests of the slot, in issue order: `(tenant, bytes)`.
    order: Vec<(usize, u32)>,
    next: usize,
    /// The outstanding request: `(tenant, issue instant, bytes)`.
    in_flight: Option<(usize, SimTime, u32)>,
}

/// A client node's tenant mux.
#[derive(Debug)]
struct Client {
    tenants: Vec<ClientTenant>,
    slots: Vec<Slot>,
    requests: usize,
    completed: usize,
    /// Request latencies of the current job, simulated ns.
    latencies: Vec<u64>,
    replies_checked: u64,
    replies_wrong: u64,
    /// Send the previous request's page again (proves the check is live).
    stale: bool,
    log: SpanLog,
}

impl Client {
    /// Loads a job's request order (tenants and sizes) and rewinds.
    fn load(&mut self, order: &[(usize, u32)]) {
        let w = self.slots.len();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.order.clear();
            slot.order.extend(order.iter().filter(|&&(t, _)| t % w == i));
        }
        self.requests = order.len();
        for slot in &mut self.slots {
            slot.next = 0;
            slot.in_flight = None;
        }
        self.completed = 0;
        self.latencies.clear();
    }

    fn step_inner(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        let w = self.slots.len();
        for ev in inbox {
            let Some(t) = self.tenants.iter().position(|t| t.reply_paddr == ev.dst_paddr) else {
                continue;
            };
            let slot = &mut self.slots[t % w];
            let Some((_, issued, bytes)) = slot.in_flight.take_if(|f| f.0 == t) else { continue };
            self.latencies.push(ev.done.saturating_duration_since(issued).as_nanos());
            let landed = node.os().machine().mem().read(ev.dst_paddr, u64::from(bytes));
            let tenant = &mut self.tenants[t];
            let ok = tenant.turn.check(&tenant.expect, landed.ok()) && ev.bytes == bytes;
            self.replies_checked += 1;
            self.replies_wrong += u64::from(!ok);
            self.completed += 1;
        }
        for slot in &mut self.slots {
            if slot.in_flight.is_some() || slot.next == slot.order.len() {
                continue;
            }
            let (t, bytes) = slot.order[slot.next];
            let tenant = &mut self.tenants[t];
            let span = self.log.enter(Layer::Ensure);
            let dev_page = slot.dir.ensure(tenant.handle, node);
            self.log.exit(span);
            out.push(SendOp {
                pid: tenant.pid,
                src_va: VirtAddr::new(tenant.turn.next_send(self.stale)),
                dev_page: dev_page?,
                dev_off: 0,
                nbytes: u64::from(bytes),
                class: tenant.class,
            });
            slot.in_flight = Some((t, node.os().machine().now(), bytes));
            slot.next += 1;
        }
        Ok(())
    }
}

impl TrafficProgram for Client {
    fn planned_hint(&self) -> usize {
        self.requests.saturating_sub(self.slots.len())
    }

    fn step(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        let span = self.log.enter(Layer::Step);
        let stepped = self.step_inner(node, inbox, out);
        self.log.exit(span);
        stepped
    }

    fn finished(&self) -> bool {
        self.completed == self.requests
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[derive(Debug)]
struct ServerTenant {
    pid: Pid,
    request_paddr: PhysAddr,
    handle: usize,
    turn: Alternation,
    /// The client tenant's request pages, as the check expects them.
    expect: Pages,
}

/// A server node's mux: answers each request with as many bytes of the
/// tenant's reply page, as a `System`-class send. Its directories mirror
/// the client's window slots, so at most one reply per directory is
/// queued at a time and an eviction never revokes a queued reply's grant.
#[derive(Debug)]
struct Server {
    dirs: Vec<NiptDirectory>,
    tenants: Vec<ServerTenant>,
    expected: usize,
    replied: usize,
    requests_checked: u64,
    requests_wrong: u64,
    /// Send the previous reply's page again (proves the check is live).
    stale: bool,
    log: SpanLog,
}

impl Server {
    fn step_inner(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        for ev in inbox {
            let Some(t) = self.tenants.iter().position(|t| t.request_paddr == ev.dst_paddr) else {
                continue;
            };
            let tenant = &mut self.tenants[t];
            let landed = node.os().machine().mem().read(ev.dst_paddr, u64::from(ev.bytes));
            self.requests_checked += 1;
            self.requests_wrong += u64::from(!tenant.turn.check(&tenant.expect, landed.ok()));
            let slots = self.dirs.len();
            let dir = &mut self.dirs[t % slots];
            let span = self.log.enter(Layer::Ensure);
            let dev_page = dir.ensure(tenant.handle, node);
            self.log.exit(span);
            out.push(SendOp {
                pid: tenant.pid,
                src_va: VirtAddr::new(tenant.turn.next_send(self.stale)),
                dev_page: dev_page?,
                dev_off: 0,
                nbytes: u64::from(ev.bytes),
                class: PacketClass::System,
            });
            self.replied += 1;
        }
        Ok(())
    }
}

impl TrafficProgram for Server {
    fn planned_hint(&self) -> usize {
        self.expected
    }

    fn step(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        let span = self.log.enter(Layer::Step);
        let stepped = self.step_inner(node, inbox, out);
        self.log.exit(span);
        stepped
    }

    fn finished(&self) -> bool {
        self.replied >= self.expected
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Downcasts a plan's program to the benchmark's client or server.
enum Side<'a> {
    Client(&'a mut Client),
    Server(&'a mut Server),
}

fn side(pp: &mut ProgramPlan) -> Side<'_> {
    let any = pp.program.as_any_mut();
    if any.is::<Client>() {
        Side::Client(any.downcast_mut().expect("checked by `is`"))
    } else {
        Side::Server(any.downcast_mut().expect("serving plans hold clients and servers only"))
    }
}

/// Each client's requests of job `job`, in issue order: every window
/// slot issues an equal share, to tenants of its own drawn uniformly,
/// with sizes stratified over whole 16-byte blocks up to one page. Every
/// job thus carries the same load in fresh order.
fn orders(spec: &ServingSpec, seed: u64, job: u64) -> Vec<Vec<(usize, u32)>> {
    let per_slot = spec.requests / spec.window;
    let blocks = PAGE_SIZE / 16;
    (0..u64::from(spec.nodes) / 2)
        .map(|p| {
            let mut rng = SplitMix64::new(mix(seed, mix(job, p)));
            let mut order = Vec::with_capacity(per_slot * spec.window);
            for slot in 0..spec.window {
                for b in stratified(&mut rng, per_slot, 1, blocks + 1) {
                    let t = slot + spec.window * rng.next_below(4) as usize;
                    order.push((t, (16 * b) as u32));
                }
            }
            order
        })
        .collect()
}

/// A set-up serving machine plus its programs.
pub struct ServingRig {
    mc: Multicomputer,
    programs: Vec<ProgramPlan>,
    spec: ServingSpec,
    seed: u64,
    /// The job whose orders the programs hold.
    job: u64,
    /// Each client's request order for that job.
    orders: Vec<Vec<(usize, u32)>>,
    threads: usize,
    start: SimTime,
    latencies: Vec<u64>,
    delivered_before: u64,
}

impl ServingRig {
    /// Builds, maps, exports, fills and warms the serving machine.
    ///
    /// # Errors
    ///
    /// Any kernel trap during setup or the warm-up job.
    pub fn setup(spec: &ServingSpec, seed: u64, log: &mut SpanLog) -> Result<Self, ShrimpError> {
        assert!(spec.window >= 1 && spec.tenants == 4 * spec.window, "tenants = 4 x window");
        let pairs = usize::from(spec.nodes) / 2;
        let config = MulticomputerConfig {
            node: NodeConfig {
                machine: MachineConfig { mem_bytes: 256 * PAGE_SIZE, ..MachineConfig::default() },
                user_frames: None,
            },
            // One slot per window slot: a quarter of the tenants' mappings.
            nipt_entries: spec.window,
            ..MulticomputerConfig::default()
        };

        let span = log.enter(Layer::SetupSpawn);
        let mut mc = Multicomputer::new(spec.nodes, config);
        let pids: Vec<Vec<(Pid, Pid)>> = (0..pairs)
            .map(|p| {
                (0..spec.tenants)
                    .map(|_| (mc.spawn_process(2 * p), mc.spawn_process(2 * p + 1)))
                    .collect()
            })
            .collect();
        log.exit(span);

        let span = log.enter(Layer::SetupMap);
        for (p, tenants) in pids.iter().enumerate() {
            for &(cpid, spid) in tenants {
                for (node, pid) in [(2 * p, cpid), (2 * p + 1, spid)] {
                    mc.map_user_buffer(node, pid, SRC_VA, 2)?;
                    mc.map_user_buffer(node, pid, WINDOW_VA, 1)?;
                }
            }
        }
        log.exit(span);

        // The windows go into each side's directories, not the NIPT: the
        // mappings are imported on demand, under contention.
        let span = log.enter(Layer::SetupExport);
        let mut clients = Vec::with_capacity(pairs);
        let mut servers = Vec::with_capacity(pairs);
        for (p, tenants) in pids.iter().enumerate() {
            let (cn, sn) = (2 * p, 2 * p + 1);
            let mut slots: Vec<Slot> = (0..spec.window)
                .map(|_| Slot {
                    dir: NiptDirectory::new(),
                    order: Vec::new(),
                    next: 0,
                    in_flight: None,
                })
                .collect();
            let mut sdirs: Vec<NiptDirectory> =
                (0..spec.window).map(|_| NiptDirectory::new()).collect();
            let mut ctenants = Vec::with_capacity(spec.tenants);
            let mut stenants = Vec::with_capacity(spec.tenants);
            for (t, &(cpid, spid)) in tenants.iter().enumerate() {
                let req = mc.node_mut(sn).export_pages(spid, VirtAddr::new(WINDOW_VA), 1)?;
                let rep = mc.node_mut(cn).export_pages(cpid, VirtAddr::new(WINDOW_VA), 1)?;
                let (request_paddr, reply_paddr) = (req[0].base(), rep[0].base());
                let handle = slots[t % spec.window].dir.register(cpid, NodeId::new(sn as u16), req);
                ctenants.push(ClientTenant {
                    pid: cpid,
                    handle,
                    reply_paddr,
                    class: if t % 4 == 0 { PacketClass::System } else { PacketClass::User },
                    turn: Alternation::default(),
                    expect: Default::default(),
                });
                let handle = sdirs[t % spec.window].register(spid, NodeId::new(cn as u16), rep);
                stenants.push(ServerTenant {
                    pid: spid,
                    request_paddr,
                    handle,
                    turn: Alternation::default(),
                    expect: Default::default(),
                });
            }
            clients.push(Client {
                tenants: ctenants,
                slots,
                requests: 0,
                completed: 0,
                latencies: Vec::with_capacity(spec.requests.max(spec.tenants)),
                replies_checked: 0,
                replies_wrong: 0,
                stale: false,
                log: SpanLog::off(),
            });
            servers.push(Server {
                dirs: sdirs,
                tenants: stenants,
                expected: 0,
                replied: 0,
                requests_checked: 0,
                requests_wrong: 0,
                stale: false,
                log: SpanLog::off(),
            });
        }
        log.exit(span);

        let span = log.enter(Layer::SetupFill);
        for (p, tenants) in pids.iter().enumerate() {
            for (t, &(cpid, spid)) in tenants.iter().enumerate() {
                for page in 0..2 {
                    let va = VirtAddr::new(SRC_VA + page as u64 * PAGE_SIZE);
                    let request = page_bytes(seed, p, t, false, page);
                    mc.write_user(2 * p, cpid, va, &request)?;
                    servers[p].tenants[t].expect[page] = request;
                    let reply = page_bytes(seed, p, t, true, page);
                    mc.write_user(2 * p + 1, spid, va, &reply)?;
                    clients[p].tenants[t].expect[page] = reply;
                }
            }
        }
        log.exit(span);

        let mut programs = Vec::with_capacity(usize::from(spec.nodes));
        for (p, (client, server)) in clients.into_iter().zip(servers).enumerate() {
            programs.push(ProgramPlan { node: 2 * p, program: Box::new(client) });
            programs.push(ProgramPlan { node: 2 * p + 1, program: Box::new(server) });
        }
        let mut rig = ServingRig {
            mc,
            programs,
            spec: *spec,
            seed,
            job: 0,
            orders: orders(spec, seed, 0),
            threads: spec.threads,
            start: SimTime::ZERO,
            latencies: Vec::with_capacity(pairs * spec.requests),
            delivered_before: 0,
        };
        // Warm: one full-page request per tenant, in tenant order.
        let span = log.enter(Layer::SetupWarm);
        let warm: Vec<Vec<(usize, u32)>> = (0..pairs)
            .map(|_| (0..spec.tenants).map(|t| (t, PAGE_SIZE as u32)).collect())
            .collect();
        rig.load_orders(&warm);
        rig.mc.run_programs(&mut rig.programs, rig.threads)?;
        let orders = std::mem::take(&mut rig.orders);
        rig.load_orders(&orders);
        rig.orders = orders;
        log.exit(span);
        rig.delivered_before = rig.delivered();
        Ok(rig)
    }

    fn load_orders(&mut self, orders: &[Vec<(usize, u32)>]) {
        for (pair, chunk) in self.programs.chunks_mut(2).enumerate() {
            let [client, server] = chunk else { unreachable!("programs come in pairs") };
            if let Side::Client(c) = side(client) {
                c.load(&orders[pair]);
            }
            if let Side::Server(s) = side(server) {
                s.expected = orders[pair].len();
                s.replied = 0;
            }
        }
    }

    fn delivered(&self) -> u64 {
        self.mc.metrics_snapshot().get("delivery", "delivered", None).unwrap_or(0)
    }

    /// The machine.
    pub fn mc(&self) -> &Multicomputer {
        &self.mc
    }

    /// The machine, mutably (tracing switches).
    pub fn mc_mut(&mut self) -> &mut Multicomputer {
        &mut self.mc
    }

    /// Messages one job delivers: a request and a reply each.
    pub fn job_messages(&self) -> u64 {
        2 * self.orders.iter().map(|o| o.len() as u64).sum::<u64>()
    }

    /// Switches the programs' own span logs on.
    pub fn trace_programs(&mut self) {
        for pp in &mut self.programs {
            let log = SpanLog::on(pp.node as u64 + 1, PROGRAM_SPANS);
            match side(pp) {
                Side::Client(c) => c.log = log,
                Side::Server(s) => s.log = log,
            }
        }
    }

    /// Readies job `job`: its request orders loaded (or the programs
    /// rewound), clocks synchronized. Not timed.
    pub fn prepare(&mut self, job: u64) {
        if self.job != job {
            self.orders = orders(&self.spec, self.seed, job);
            self.job = job;
        }
        let orders = std::mem::take(&mut self.orders);
        self.load_orders(&orders);
        self.orders = orders;
        self.start = self.mc.barrier_sync();
    }

    /// Runs one job at `threads` (the rig's own when `None`): the timed
    /// region. The programs' spans fold into `log` under the run span.
    ///
    /// # Errors
    ///
    /// Any kernel trap in a program step or send.
    pub fn job(&mut self, threads: Option<usize>, log: &mut SpanLog) -> Result<(), ShrimpError> {
        let span = log.enter(Layer::Run);
        let ran = self.mc.run_programs(&mut self.programs, threads.unwrap_or(self.threads));
        for pp in &mut self.programs {
            match side(pp) {
                Side::Client(c) => log.absorb(&mut c.log),
                Side::Server(s) => log.absorb(&mut s.log),
            }
        }
        log.exit(span);
        ran.map(|_| ())
    }

    /// Flips a byte of every tenant's expected requests and replies, to
    /// prove the checks are live.
    pub fn corrupt_expected(&mut self) {
        for pp in &mut self.programs {
            let expects: Vec<&mut Pages> = match side(pp) {
                Side::Client(c) => c.tenants.iter_mut().map(|t| &mut t.expect).collect(),
                Side::Server(s) => s.tenants.iter_mut().map(|t| &mut t.expect).collect(),
            };
            for page in expects.into_iter().flatten() {
                page[0] ^= 0xff;
            }
        }
    }

    /// Makes every tenant send the page it sent last time again, so each
    /// window keeps the bytes it holds, as if the copy had been lost: to
    /// prove the checks catch it.
    pub fn send_stale(&mut self) {
        for pp in &mut self.programs {
            match side(pp) {
                Side::Client(c) => c.stale = true,
                Side::Server(s) => s.stale = true,
            }
        }
    }

    /// Simulated outcome of the last job: `(makespan ns, every request's
    /// latency ns)`.
    pub fn outcome(&mut self) -> (u64, &[u64]) {
        let end = (0..self.mc.node_count())
            .map(|i| self.mc.node(i).os().machine().now())
            .max()
            .unwrap_or(self.start);
        self.latencies.clear();
        for pp in &mut self.programs {
            if let Side::Client(c) = side(pp) {
                self.latencies.extend_from_slice(&c.latencies);
            }
        }
        (end.saturating_duration_since(self.start).as_nanos(), &self.latencies)
    }

    /// Checks the last job: every request answered, each request and
    /// reply holding its sender tenant's bytes (checked as it landed),
    /// every message delivered, nothing dropped.
    pub fn check(&mut self, checks: &mut Checks) {
        for pp in &mut self.programs {
            let node = pp.node;
            match side(pp) {
                Side::Client(c) => {
                    checks.expect(c.completed == c.requests, || {
                        format!("node {node}: {} of {} requests answered", c.completed, c.requests)
                    });
                    let wrong = std::mem::take(&mut c.replies_wrong);
                    checks.count(std::mem::take(&mut c.replies_checked), wrong, || {
                        format!("node {node}: {wrong} replies differ from the server's bytes")
                    });
                }
                Side::Server(s) => {
                    let wrong = std::mem::take(&mut s.requests_wrong);
                    checks.count(std::mem::take(&mut s.requests_checked), wrong, || {
                        format!("node {node}: {wrong} requests differ from the client's bytes")
                    });
                }
            }
        }
        let delivered = self.delivered();
        let sent = delivered - self.delivered_before;
        self.delivered_before = delivered;
        checks.expect(sent == self.job_messages(), || {
            format!("{sent} of {} messages delivered", self.job_messages())
        });
        let drops = self.mc.dropped_packets() + self.mc.fabric().fabric_drops();
        checks.expect(drops == 0, || format!("{drops} packets dropped"));
    }
}
