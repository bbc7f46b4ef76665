//! The SHRIMP simulator's benchmark: three long workloads, end-to-end
//! host and simulated metrics from an untraced run, and a per-layer split
//! from a separate traced run. See `README.md` beside this crate for why
//! each workload exists and which layer should move which metric.
//!
//! One run of a workload sets the machine up [`Plan::setups`] times, and
//! times every setup (the fastest is `setup_s`):
//!
//! 1. the first machine runs the first job through a *reference* driver
//!    and records its `state_digest`;
//! 2. untraced (`trace = false`): the window is split into equal rounds,
//!    one per later machine, so the setups are spread over the run. Each
//!    round repeats the workload's fixed-size batch job, numbering jobs
//!    on from the previous round, and checks every job's outputs. The
//!    first job's digest must equal the reference digest. The simulated
//!    figures of the first [`Plan::sim_jobs`] jobs are the `sim_`
//!    metrics, so they repeat exactly for a seed;
//! 3. traced (`trace = true`): the second-to-last machine measures an
//!    untraced window and the last one a traced window with the flight
//!    recorder, the engine's phase clock and the benchmark's spans on.
//!    Both first-job digests must match each other and the reference.
//!
//! The simulator receives only the inputs generated from the seed; host
//! time read inside a traffic program's step is recorded, never acted on.

pub mod alloc;
pub mod cli;
pub mod serving;
pub mod spans;
pub mod stream;

use std::time::Instant;

use shrimp::{Multicomputer, PhaseBreakdown, ShrimpError};
use shrimp_mem::PAGE_SIZE;
use shrimp_sim::{MetricSet, SplitMix64, Stage, StatSet};

use crate::serving::{ServingRig, ServingSpec};
use crate::spans::{now_ns, Layer, SpanLog};
use crate::stream::{StreamRig, StreamSpec};

/// Seeds the workloads were sized and tuned on.
pub const DEV_SEEDS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
/// A seed never used while building the benchmark, kept for confirming
/// later performance claims.
pub const HELD_OUT_SEED: u64 = 7_340_033;

/// Raw spans kept per log for the span dump (later spans only aggregate).
const LOG_SPANS: usize = 1 << 18;
/// Span-id spaces: setup spans, window spans; traffic programs use their
/// node index plus one.
const SETUP_LOG: u64 = 0;
const WINDOW_LOG: u64 = 1 << 17;
/// Jobs every window runs at least, however short `seconds` is (at
/// least every plan's `sim_jobs`).
const MIN_JOBS: u64 = 8;
/// Jobs `msgs_per_s` is taken from: one per equal share of the window's
/// job time, so the sample size does not depend on how fast jobs run.
const SAMPLED_JOBS: u64 = 256;

/// How a stream job is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `send_burst` per train plus `run_until_quiet`; `burst = false`
    /// forces the literal per-message path.
    Serial {
        /// Whether trains may be replayed as batched runs.
        burst: bool,
    },
    /// `Multicomputer::run` on `threads` worker threads.
    Parallel {
        /// Worker threads.
        threads: usize,
    },
}

/// Mixes two words into a seed for an independent generator stream.
pub fn mix(a: u64, b: u64) -> u64 {
    SplitMix64::new(a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b).next_u64()
}

/// One page of bytes from a generator seeded with `seed`.
pub fn seeded_page(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..PAGE_SIZE / 8).flat_map(|_| rng.next_u64().to_le_bytes()).collect()
}

/// `n` values stratified over `[lo, hi)`, in seeded order: value `i` is
/// drawn uniformly from the `i`-th of `n` equal strata. The seed moves
/// each value within its stratum and shuffles the order, so every seed
/// gets fresh inputs with nearly the same distribution, and the
/// simulated figures shift only slightly from seed to seed.
pub fn stratified(rng: &mut SplitMix64, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let width = (hi - lo) / n as u64;
    assert!(width >= 2, "strata too narrow for {n} values in [{lo}, {hi})");
    let mut v: Vec<u64> = (0..n as u64).map(|i| lo + i * width + rng.next_below(width)).collect();
    rng.shuffle(&mut v);
    v
}

/// Output checks: how many were made and how many failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }

    /// Records `attempted` checks of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 2 nodes, one flow of 4 KB trains, serial driver.
    PairStream,
    /// 256 nodes, 128 flows of 4 KB trains, `run` at 2 threads.
    MeshStreamT2,
    /// 64 nodes, 32 client/server pairs of 16 tenants, `run_programs`.
    TenantServing,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::PairStream, Workload::MeshStreamT2, Workload::TenantServing];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairStream => "pair_stream",
            Workload::MeshStreamT2 => "mesh_stream_t2",
            Workload::TenantServing => "tenant_serving",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the real workload, or a tiny one for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Seconds-long sizes for the self-test.
    Tiny,
}

/// A deliberate fault in the expected outputs, for proving the checks
/// are live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    /// The reference digest is off by one bit.
    Digest,
    /// The expected payload (or request and reply) bytes are off by one
    /// byte.
    Payload,
    /// The senders send the bytes their receivers already hold, so every
    /// receiver page looks as if its copy had been lost.
    Stale,
}

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds to measure (split evenly between the untraced and
    /// traced windows of a traced run).
    pub seconds: f64,
    /// Report the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// A fault to inject into the expected outputs.
    pub corrupt: Option<Corrupt>,
}

/// The workload's shape at a scale.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// A stream workload.
    Stream(StreamSpec),
    /// The serving workload.
    Serving(ServingSpec),
}

/// How one workload is run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The workload's inputs.
    pub shape: Shape,
    /// Machines set up per run (at least 3: reference, untraced, traced),
    /// and so rounds per untraced window (one fewer).
    pub setups: usize,
    /// Leading jobs of a window the `sim_` metrics cover.
    pub sim_jobs: u64,
}

impl Plan {
    /// The plan of `workload` at `scale`.
    pub fn of(workload: Workload, scale: Scale) -> Plan {
        let full = scale == Scale::Full;
        let shape = match workload {
            Workload::PairStream => Shape::Stream(StreamSpec {
                nodes: 2,
                trains_per_flow: if full { 256 } else { 8 },
                train_len: if full { (64, 1088) } else { (3, 19) },
                mem_pages: None,
                driver: Driver::Serial { burst: true },
            }),
            Workload::MeshStreamT2 => Shape::Stream(StreamSpec {
                nodes: if full { 256 } else { 16 },
                trains_per_flow: 1,
                train_len: if full { (256, 768) } else { (3, 19) },
                mem_pages: Some(64),
                driver: Driver::Parallel { threads: 2 },
            }),
            Workload::TenantServing => Shape::Serving(ServingSpec {
                nodes: if full { 64 } else { 4 },
                tenants: if full { 16 } else { 8 },
                window: if full { 4 } else { 2 },
                requests: if full { 64 } else { 16 },
                threads: 1,
            }),
        };
        // Setting up is cheap next to a window, so every run sets up
        // many times, spread over the window, and reports the fastest.
        let setups = match (workload, full) {
            (_, false) => 3,
            (Workload::PairStream, true) => 30,
            (Workload::MeshStreamT2, true) => 12,
            (Workload::TenantServing, true) => 20,
        };
        // Stream jobs repeat their trains, so one job holds every latency
        // sample; serving jobs draw fresh orders, and eight of them give
        // the request percentiles 16384 samples.
        let sim_jobs = match (workload, full) {
            (Workload::TenantServing, true) => 8,
            _ => 1,
        };
        Plan { shape, setups, sim_jobs }
    }
}

/// A set-up machine of either kind.
enum Rig {
    Stream(StreamRig),
    Serving(ServingRig),
}

impl Rig {
    fn setup(shape: &Shape, seed: u64, log: &mut SpanLog) -> Result<Rig, ShrimpError> {
        Ok(match shape {
            Shape::Stream(s) => Rig::Stream(StreamRig::setup(s, seed, log)?),
            Shape::Serving(s) => Rig::Serving(ServingRig::setup(s, seed, log)?),
        })
    }

    fn mc(&self) -> &Multicomputer {
        match self {
            Rig::Stream(r) => r.mc(),
            Rig::Serving(r) => r.mc(),
        }
    }

    fn prepare(&mut self, job: u64) -> Result<(), ShrimpError> {
        match self {
            Rig::Stream(r) => r.prepare(job),
            Rig::Serving(r) => {
                r.prepare(job);
                Ok(())
            }
        }
    }

    /// One job through the workload's own driver, or through its
    /// reference driver: the literal per-message path for the serial
    /// stream, the serial driver for the parallel stream, and two worker
    /// threads for serving.
    fn job(&mut self, reference: bool, log: &mut SpanLog) -> Result<(), ShrimpError> {
        match self {
            Rig::Stream(r) => {
                let driver = reference.then_some(match r.driver() {
                    Driver::Serial { .. } => Driver::Serial { burst: false },
                    Driver::Parallel { .. } => Driver::Serial { burst: true },
                });
                r.job(driver, log)
            }
            Rig::Serving(r) => r.job(reference.then_some(2), log),
        }
    }

    fn job_messages(&self) -> u64 {
        match self {
            Rig::Stream(r) => r.job_messages(),
            Rig::Serving(r) => r.job_messages(),
        }
    }

    fn outcome(&mut self) -> (u64, Vec<u64>) {
        let (makespan, latencies) = match self {
            Rig::Stream(r) => r.outcome(),
            Rig::Serving(r) => r.outcome(),
        };
        (makespan, latencies.to_vec())
    }

    fn check(&mut self, checks: &mut Checks) {
        match self {
            Rig::Stream(r) => r.check(checks),
            Rig::Serving(r) => r.check(checks),
        }
    }

    fn corrupt(&mut self, stale: bool) {
        match self {
            Rig::Stream(r) if stale => r.send_stale(),
            Rig::Stream(r) => r.corrupt_expected(),
            Rig::Serving(r) if stale => r.send_stale(),
            Rig::Serving(r) => r.corrupt_expected(),
        }
    }

    fn set_tracing(&mut self) {
        let mc = match self {
            Rig::Stream(r) => r.mc_mut(),
            Rig::Serving(r) => {
                r.trace_programs();
                r.mc_mut()
            }
        };
        mc.set_tracing(true);
        mc.set_phase_clock(Some(now_ns));
    }
}

/// One measured window, on one machine or spread over several.
struct Window {
    /// Per-job messages per host second, for the report.
    rates: Vec<f64>,
    /// Rates of the sampled jobs: the first job to start in each
    /// `SAMPLED_JOBS`-th of the window's job time.
    sampled: Vec<f64>,
    sample_every_ns: u64,
    next_sample_ns: u64,
    jobs: u64,
    msgs: u64,
    /// Host ns spent inside jobs.
    wall_ns: u64,
    /// Allocations inside jobs (0 without the counting allocator).
    allocs: u64,
    /// First job's state digest; the first `sim_jobs` jobs' simulated
    /// makespans (summed) and request latencies.
    digest: u64,
    makespan_ns: u64,
    latencies: Vec<u64>,
    /// Traced windows: the span log and the per-layer figures.
    log: SpanLog,
    layers: Vec<Metric>,
}

impl Window {
    /// An empty window of `seconds` of job time.
    fn new(seconds: f64) -> Window {
        Window {
            rates: Vec::new(),
            sampled: Vec::with_capacity(SAMPLED_JOBS as usize),
            sample_every_ns: (seconds * 1e9 / SAMPLED_JOBS as f64) as u64,
            next_sample_ns: 0,
            jobs: 0,
            msgs: 0,
            wall_ns: 0,
            allocs: 0,
            digest: 0,
            makespan_ns: 0,
            latencies: Vec::new(),
            log: SpanLog::off(),
            layers: Vec::new(),
        }
    }

    /// The fastest sampled job's rate. Jobs are fixed batches, and on a
    /// shared host other tenants only ever slow a job down: on the 2-core
    /// Xeon host the benchmark was built on, the job rate swung by up to
    /// 2.6x within one run, which moves every statistic that averages over
    /// jobs. Like a minimum time, the fastest job estimates the
    /// simulator's own speed. The window mean is in the report.
    fn msgs_per_s(&self) -> f64 {
        self.sampled.iter().copied().fold(0.0, f64::max)
    }

    /// Messages delivered over the host time spent in all the window's
    /// jobs, for the report.
    fn mean_msgs_per_s(&self) -> f64 {
        self.msgs as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Counter readings at the start of a traced window.
struct Probe {
    snapshot: MetricSet,
    stats: StatSet,
    engine: MetricSet,
}

impl Probe {
    fn take(mc: &Multicomputer) -> Probe {
        Probe { snapshot: mc.metrics_snapshot(), stats: mc.stats(), engine: mc.engine_metrics() }
    }
}

/// Runs jobs on `rig` for `seconds` of job time, adding them to `w`.
fn measure(
    rig: &mut Rig,
    plan: &Plan,
    seconds: f64,
    traced: bool,
    checks: &mut Checks,
    w: &mut Window,
) -> Result<(), ShrimpError> {
    let mut log = if traced { SpanLog::on(WINDOW_LOG, LOG_SPANS) } else { SpanLog::off() };
    if traced {
        rig.set_tracing();
    }
    let probe = traced.then(|| Probe::take(rig.mc()));
    let mut phases = PhaseBreakdown::default();
    let mut epochs = 0;
    let per_job = rig.job_messages();
    let budget_ns = (seconds * 1e9) as u64;
    let started = Instant::now();
    let wall_before = w.wall_ns;
    // A job's checks and preparation run outside its timing; the wall
    // bound keeps a run whose checks are slow inside its time limit.
    while w.jobs < MIN_JOBS
        || (w.wall_ns - wall_before < budget_ns && started.elapsed().as_secs_f64() < 1.5 * seconds)
    {
        rig.prepare(w.jobs)?;
        let allocs = alloc::allocation_count();
        let t0 = now_ns();
        rig.job(false, &mut log)?;
        let dt = (now_ns() - t0).max(1);
        w.allocs += alloc::allocation_count() - allocs;
        let rate = per_job as f64 * 1e9 / dt as f64;
        w.rates.push(rate);
        if w.wall_ns >= w.next_sample_ns && (w.sampled.len() as u64) < SAMPLED_JOBS {
            w.sampled.push(rate);
            while w.next_sample_ns <= w.wall_ns {
                w.next_sample_ns += w.sample_every_ns.max(1);
            }
        }
        w.wall_ns += dt;
        w.msgs += per_job;
        rig.check(checks);
        if w.jobs == 0 {
            w.digest = rig.mc().state_digest();
        }
        if w.jobs < plan.sim_jobs {
            let (makespan_ns, latencies) = rig.outcome();
            w.makespan_ns += makespan_ns;
            w.latencies.extend(latencies);
        }
        if traced {
            phases.merge_from(rig.mc().phase_breakdown());
            epochs += rig.mc().engine_metrics().get("engine", "epochs", None).unwrap_or(0);
        }
        w.jobs += 1;
    }
    if let Some(probe) = probe {
        w.layers = layer_counts(rig.mc(), &probe, &phases, epochs, &log, w);
        w.log = log;
    }
    Ok(())
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// Output checks made and failed.
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable context: sample counts, error rate, digests.
    pub notes: Vec<String>,
    /// Every span of the run: setups, then the traced window.
    pub spans: SpanLog,
}

impl Report {
    /// Failed checks over checks attempted.
    pub fn error_rate(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// The median of `xs` (0 when empty).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted `xs`, and how many samples lie
/// above it.
fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    if sorted.is_empty() {
        return (0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The process's peak resident set, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one workload as `cfg` says.
///
/// # Errors
///
/// A kernel trap in setup or in a job: the workloads are built so that
/// none occurs, so this is a simulator fault.
pub fn run(cfg: &Config) -> Result<Report, ShrimpError> {
    let plan = Plan::of(cfg.workload, cfg.scale);
    let mut checks = Checks::default();
    let mut setup_log = if cfg.trace { SpanLog::on(SETUP_LOG, LOG_SPANS) } else { SpanLog::off() };
    let mut setup_s = Vec::with_capacity(plan.setups);
    let mut reference = 0;
    let mut windows = Vec::new();
    let mut peak_rss = 0.0;
    let rounds = (plan.setups - 1) as f64;
    for k in 0..plan.setups {
        let t0 = Instant::now();
        let mut rig = Rig::setup(&plan.shape, cfg.seed, &mut setup_log)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            rig.prepare(0)?;
            rig.job(true, &mut SpanLog::off())?;
            rig.check(&mut checks);
            reference = rig.mc().state_digest();
            if cfg.corrupt == Some(Corrupt::Digest) {
                reference ^= 1;
            }
            continue;
        }
        if let Some(kind @ (Corrupt::Payload | Corrupt::Stale)) = cfg.corrupt {
            rig.corrupt(kind == Corrupt::Stale);
        }
        if !cfg.trace {
            if windows.is_empty() {
                windows.push(Window::new(cfg.seconds));
            }
            measure(&mut rig, &plan, cfg.seconds / rounds, false, &mut checks, &mut windows[0])?;
            // Read once one machine has run: later rounds only add the
            // allocator's reuse of freed machines to the high water.
            if k == 1 {
                peak_rss = peak_rss_mb().unwrap_or(0.0);
            }
        } else if k + 2 >= plan.setups {
            let mut w = Window::new(cfg.seconds / 2.0);
            let traced = k + 1 == plan.setups;
            measure(&mut rig, &plan, cfg.seconds / 2.0, traced, &mut checks, &mut w)?;
            windows.push(w);
        }
    }
    for w in &windows {
        checks.expect(w.digest == reference, || {
            format!("first-job digest {:#018x} != reference {reference:#018x}", w.digest)
        });
    }
    let mut notes = vec![format!("reference digest {reference:#018x}")];
    let mut metrics = Vec::new();
    let mut spans = setup_log;
    if let [untraced, traced] = &mut windows[..] {
        checks.expect(traced.digest == untraced.digest, || {
            format!("traced digest {:#018x} != untraced {:#018x}", traced.digest, untraced.digest)
        });
        metrics.extend(setup_layers(&spans, plan.setups));
        metrics.append(&mut traced.layers);
        let overhead = traced.msgs_per_s() / untraced.msgs_per_s();
        metrics.push(metric("bench.trace_overhead", overhead, "ratio"));
        spans.absorb(&mut traced.log);
        notes.push(format!(
            "untraced {:.0} msgs/s, traced {:.0} msgs/s over {} + {} jobs",
            untraced.msgs_per_s(),
            traced.msgs_per_s(),
            untraced.jobs,
            traced.jobs
        ));
    } else if let [w] = &windows[..] {
        let mut lat = w.latencies.clone();
        lat.sort_unstable();
        let (p50, _) = percentile(&lat, 0.50);
        let (p99, beyond) = percentile(&lat, 0.99);
        metrics = vec![
            metric("msgs_per_s", w.msgs_per_s(), "1/s"),
            metric("setup_s", setup_s.iter().copied().fold(f64::INFINITY, f64::min), "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
            metric("sim_makespan_us", w.makespan_ns as f64 / 1e3, "us"),
            metric("sim_request_p50_ns", p50 as f64, "ns"),
            metric("sim_request_p99_ns", p99 as f64, "ns"),
        ];
        notes.push(format!(
            "sim_request samples {} ({beyond} beyond p99); {} jobs of {} msgs in {:.3} s, \
             window mean {:.0} msgs/s, median job {:.0} msgs/s, fastest of {} sampled jobs; \
             median setup {:.4} s",
            lat.len(),
            w.jobs,
            w.msgs / w.jobs.max(1),
            w.wall_ns as f64 / 1e9,
            w.mean_msgs_per_s(),
            median(&w.rates),
            w.sampled.len(),
            median(&setup_s)
        ));
    }
    Ok(Report { checks, metrics, notes, spans })
}

/// Setup phases: self time per setup.
fn setup_layers(log: &SpanLog, setups: usize) -> Vec<Metric> {
    [
        (Layer::SetupSpawn, "spawn"),
        (Layer::SetupMap, "map"),
        (Layer::SetupExport, "export"),
        (Layer::SetupFill, "fill"),
        (Layer::SetupWarm, "warm"),
    ]
    .into_iter()
    .map(|(layer, phase)| {
        metric(
            format!("multicomputer.setup.{phase}_ns"),
            log.self_ns(layer) as f64 / setups as f64,
            "ns/setup",
        )
    })
    .collect()
}

/// Ratio with a zero denominator reading 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer figures of a traced window: host self time and call
/// counts from the spans, counts from the simulator's metric surfaces,
/// stage latencies from the flight recorder. Counts and times are per
/// job unless the unit says otherwise.
fn layer_counts(
    mc: &Multicomputer,
    probe: &Probe,
    phases: &PhaseBreakdown,
    epochs: u64,
    log: &SpanLog,
    w: &Window,
) -> Vec<Metric> {
    let jobs = w.jobs as f64;
    let per_job = |x: u64| x as f64 / jobs;
    let nodes = mc.node_count() as u32;
    let snap = mc.snapshot_delta(&probe.snapshot);
    let scalar = |sub: &str, name: &str| snap.get(sub, name, None).unwrap_or(0);
    let summed = |sub: &str, name: &str| -> u64 {
        (0..nodes).map(|i| snap.get(sub, name, Some(i)).unwrap_or(0)).sum()
    };
    let engine = mc.engine_metrics();
    let engine_delta = |sub: &str, name: &str| {
        let now = engine.get(sub, name, None).unwrap_or(0);
        now - probe.engine.get(sub, name, None).unwrap_or(0)
    };
    let stats = mc.stats();
    let stat = |key: &str| stats.get(key) - probe.stats.get(key);

    let delivered = scalar("delivery", "delivered");
    let runs = scalar("delivery", "runs_committed");
    let (proxy_stores, proxy_loads) = (stat("proxy_stores"), stat("proxy_loads"));
    let (tlb_hits, tlb_misses) = (summed("tlb", "hits"), summed("tlb", "misses"));
    let refaults = summed("nipt", "refaults");
    let busy = |layer: Layer| per_job(log.self_ns(layer));
    let calls = |layer: Layer| per_job(log.calls(layer));
    let buf_high = (0..nodes)
        .filter_map(|i| engine.get_high_water("buf_pool", "in_use", Some(i)))
        .max()
        .unwrap_or(0);
    let buf_exhaustion: u64 = (0..nodes)
        .map(|i| {
            let now = engine.get("buf_pool", "exhaustion", Some(i)).unwrap_or(0);
            now - probe.engine.get("buf_pool", "exhaustion", Some(i)).unwrap_or(0)
        })
        .sum();

    let mut out = vec![
        metric("multicomputer.send_burst.busy_ns", busy(Layer::SendBurst), "ns/job"),
        metric("multicomputer.send_burst.calls", calls(Layer::SendBurst), "count/job"),
        metric("multicomputer.drain.busy_ns", busy(Layer::Drain), "ns/job"),
        metric("parallel.run.busy_ns", busy(Layer::Run), "ns/job"),
        metric("parallel.crossings", per_job(phases.execute.count()), "count/job"),
        metric("parallel.epochs", per_job(epochs), "count/job"),
        metric("parallel.execute_ns", per_job(phases.execute.sum()), "ns/job"),
        metric("parallel.commit_ns", per_job(phases.commit.sum()), "ns/job"),
        metric("parallel.merge_ns", per_job(phases.merge.sum()), "ns/job"),
        metric("parallel.barrier_wait_ns", per_job(phases.barrier.sum()), "ns/job"),
        metric("engine.delivered", per_job(delivered), "count/job"),
        metric("engine.runs_committed", per_job(runs), "count/job"),
        metric("engine.run_splits", per_job(scalar("delivery", "run_splits")), "count/job"),
        metric("engine.drops", per_job(scalar("delivery", "drops")), "count/job"),
        metric("engine.msgs_per_run", ratio(delivered as f64, runs as f64), "ratio"),
        metric("net.packets", per_job(scalar("fabric", "packets")), "count/job"),
        metric("net.payload_bytes", per_job(scalar("fabric", "payload_bytes")), "B/job"),
        metric("net.drops", per_job(scalar("fabric", "drops")), "count/job"),
        metric("net.wheel_spills", per_job(engine_delta("wheel", "spills")), "count/job"),
        metric("net.wheel_reseeds", per_job(engine_delta("wheel", "reseeds")), "count/job"),
        metric(
            "net.wheel_depth_high",
            engine.get("wheel", "depth_high", None).unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "net.dst_lane_spills",
            per_job(engine_delta("dst_index", "lane_spills")),
            "count/job",
        ),
        metric("nic.packets_built", per_job(stat("packets_built")), "count/job"),
        metric("nic.buf_pool_in_use_high", buf_high as f64, "count"),
        metric("nic.buf_pool_exhaustion", per_job(buf_exhaustion), "count/job"),
        metric("machine.proxy_stores", per_job(proxy_stores), "count/job"),
        metric("machine.proxy_loads", per_job(proxy_loads), "count/job"),
        metric(
            "machine.proxy_refs_per_msg",
            ratio((proxy_stores + proxy_loads) as f64, w.msgs as f64),
            "count/msg",
        ),
        metric("dma.starts", per_job(stat("starts")), "count/job"),
        metric("dma.aborts", per_job(stat("aborts")), "count/job"),
        metric("mmu.tlb_hits", per_job(tlb_hits), "count/job"),
        metric("mmu.tlb_misses", per_job(tlb_misses), "count/job"),
        metric(
            "mmu.tlb_hit_ratio",
            ratio(tlb_hits as f64, (tlb_hits + tlb_misses) as f64),
            "ratio",
        ),
        metric("os.context_switches", per_job(stat("context_switches")), "count/job"),
        metric("os.device_grants", per_job(stat("device_grants")), "count/job"),
        metric("os.device_revokes", per_job(stat("device_revokes")), "count/job"),
        metric("os.page_faults", per_job(stat("page_faults")), "count/job"),
        metric("tenant.ensure.busy_ns", busy(Layer::Ensure), "ns/job"),
        metric("tenant.ensure.calls", calls(Layer::Ensure), "count/job"),
        metric("nipt.evictions", per_job(summed("nipt", "evictions")), "count/job"),
        metric("nipt.refaults", per_job(refaults), "count/job"),
        metric(
            "nipt.hit_ratio",
            ratio(
                log.calls(Layer::Ensure) as f64 - refaults as f64,
                log.calls(Layer::Ensure) as f64,
            ),
            "ratio",
        ),
        metric("program.step.busy_ns", busy(Layer::Step), "ns/job"),
        metric("program.step.calls", calls(Layer::Step), "count/job"),
    ];
    out.extend(stage_latencies(mc));
    out.push(metric("bench.allocs_per_msg", ratio(w.allocs as f64, w.msgs as f64), "count/msg"));
    out.push(metric(
        "bench.unattributed_share",
        ratio(w.wall_ns.saturating_sub(log.top_ns()) as f64, w.wall_ns as f64),
        "ratio",
    ));
    out
}

/// Simulated per-stage latency percentiles over the flight recorder's
/// retained spans (the newest `Multicomputer::TRACE_SPANS`).
fn stage_latencies(mc: &Multicomputer) -> Vec<Metric> {
    let mut out = Vec::new();
    for stage in Stage::ALL {
        let mut d: Vec<u64> = mc
            .recorder()
            .iter()
            .map(|s| {
                let (start, end) = s.stage_bounds(stage);
                end.saturating_duration_since(start).as_nanos()
            })
            .collect();
        d.sort_unstable();
        for (p, label) in [(0.50, "p50_ns"), (0.99, "p99_ns")] {
            let name = format!("sim.stage.{}.{label}", stage.name());
            out.push(metric(name, percentile(&d, p).0 as f64, "ns"));
        }
    }
    out
}
