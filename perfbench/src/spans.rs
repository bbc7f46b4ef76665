//! Host-time spans recorded by the benchmark around its calls into the
//! simulator's layers.
//!
//! A span has a name (its [`Layer`]), a start, an end and the span that
//! caused it. Self time — a span's duration minus the part its children
//! cover — is aggregated online per layer, so the per-layer figures cover
//! every span of a run. The raw spans are kept in a buffer reserved up
//! front; once it is full, later spans still count towards the aggregates
//! but are not stored. Nothing here allocates after construction, so a
//! traced window's allocation count measures the simulator alone.
//!
//! A disabled log records nothing: `enter`/`exit` return at once.

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic host nanoseconds since the first call, shared by every
/// thread. Also installed as the engine's phase clock
/// (`Multicomputer::set_phase_clock`), so engine phases and benchmark
/// spans share one time base.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The layer boundary a span sits on, named `<module>.<call>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Multicomputer::new` plus `spawn_process`.
    SetupSpawn,
    /// `map_user_buffer`.
    SetupMap,
    /// `export` / `export_pages` plus directory registration.
    SetupExport,
    /// `write_user` of the workload's payload bytes.
    SetupFill,
    /// The warm-up traffic before measurement.
    SetupWarm,
    /// `Multicomputer::send_burst` (serial driver).
    SendBurst,
    /// `Multicomputer::run_until_quiet` (serial driver).
    Drain,
    /// `Multicomputer::run` / `run_programs` (parallel engine).
    Run,
    /// `NiptDirectory::ensure`, called from the benchmark's programs.
    Ensure,
    /// The benchmark's own `TrafficProgram::step`.
    Step,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::SetupSpawn,
        Layer::SetupMap,
        Layer::SetupExport,
        Layer::SetupFill,
        Layer::SetupWarm,
        Layer::SendBurst,
        Layer::Drain,
        Layer::Run,
        Layer::Ensure,
        Layer::Step,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SetupSpawn => "multicomputer.setup.spawn",
            Layer::SetupMap => "multicomputer.setup.map",
            Layer::SetupExport => "multicomputer.setup.export",
            Layer::SetupFill => "multicomputer.setup.fill",
            Layer::SetupWarm => "multicomputer.setup.warm",
            Layer::SendBurst => "multicomputer.send_burst",
            Layer::Drain => "multicomputer.drain",
            Layer::Run => "parallel.run",
            Layer::Ensure => "tenant.ensure",
            Layer::Step => "program.step",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. Ids are unique across every log of a run; parent
/// `0` marks a top-level span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// This span's id (never 0).
    pub id: u64,
    /// The enclosing span's id, or 0.
    pub parent: u64,
    /// Which layer boundary.
    pub layer: Layer,
    /// Start, host ns ([`now_ns`]).
    pub start_ns: u64,
    /// End, host ns.
    pub end_ns: u64,
}

/// An open span, returned by [`SpanLog::enter`] and closed by
/// [`SpanLog::exit`].
#[must_use]
#[derive(Debug)]
pub struct Open(Option<usize>);

#[derive(Clone, Copy, Debug)]
struct Frame {
    id: u64,
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// A span log: raw spans plus per-layer self time and call counts.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    /// High bits of every id this log mints.
    id_base: u64,
    next_id: u64,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    dropped: u64,
    self_ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    /// Wall time covered by this log's top-level spans.
    top_ns: u64,
}

impl SpanLog {
    /// A log that records nothing.
    pub fn off() -> Self {
        SpanLog::new(false, 0, 0)
    }

    /// A recording log that stores up to `capacity` raw spans. `log_no`
    /// keeps ids unique across the logs of one run.
    pub fn on(log_no: u64, capacity: usize) -> Self {
        SpanLog::new(true, log_no, capacity)
    }

    fn new(enabled: bool, log_no: u64, capacity: usize) -> Self {
        SpanLog {
            enabled,
            id_base: log_no << 40,
            next_id: 1,
            stack: Vec::with_capacity(if enabled { 16 } else { 0 }),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            self_ns: [0; Layer::ALL.len()],
            calls: [0; Layer::ALL.len()],
            top_ns: 0,
        }
    }

    /// Opens a span of `layer`, nested in the innermost open span.
    #[inline]
    pub fn enter(&mut self, layer: Layer) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.id_base | self.next_id;
        self.next_id += 1;
        self.stack.push(Frame { id, layer, start_ns: now_ns(), child_ns: 0 });
        Open(Some(self.stack.len() - 1))
    }

    /// Closes `open`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order (a benchmark bug).
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let Some(depth) = open.0 else { return };
        let end_ns = now_ns();
        assert_eq!(depth + 1, self.stack.len(), "spans must close innermost first");
        let f = self.stack.pop().expect("an open span");
        let dur = end_ns.saturating_sub(f.start_ns);
        self.self_ns[f.layer.index()] += dur.saturating_sub(f.child_ns);
        self.calls[f.layer.index()] += 1;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => {
                self.top_ns += dur;
                0
            }
        };
        self.store(Span { id: f.id, parent, layer: f.layer, start_ns: f.start_ns, end_ns });
    }

    fn store(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Folds `child` (a log kept by code the innermost open span called,
    /// such as a traffic program stepped inside `run_programs`) into this
    /// one: its top-level spans become children of that open span, its
    /// aggregates add to these, and its raw spans move here while room
    /// lasts. `child` is left empty, its buffer kept for reuse.
    pub fn absorb(&mut self, child: &mut SpanLog) {
        if !self.enabled {
            return;
        }
        assert!(child.stack.is_empty(), "absorbed log has open spans");
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += child.top_ns;
                p.id
            }
            None => {
                self.top_ns += child.top_ns;
                0
            }
        };
        for i in 0..child.spans.len() {
            let mut s = child.spans[i];
            if s.parent == 0 {
                s.parent = parent;
            }
            self.store(s);
        }
        child.spans.clear();
        self.dropped += std::mem::take(&mut child.dropped);
        for l in 0..Layer::ALL.len() {
            self.self_ns[l] += std::mem::take(&mut child.self_ns[l]);
            self.calls[l] += std::mem::take(&mut child.calls[l]);
        }
        child.top_ns = 0;
    }

    /// Self time of `layer` so far, host ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Closed spans of `layer` so far.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Wall time covered by top-level spans so far, host ns.
    pub fn top_ns(&self) -> u64 {
        self.top_ns
    }

    /// The stored raw spans, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans counted but not stored because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the raw spans as tab-separated `id parent name start_ns
    /// end_ns` lines after a `#` header naming the dropped count.
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    pub fn write_tsv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "# spans {} dropped {}", self.spans.len(), self.dropped)?;
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{:#x}\t{:#x}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_absorbed_logs() {
        let mut log = SpanLog::on(0, 16);
        let run = log.enter(Layer::Run);
        let mut child = SpanLog::on(1, 16);
        let step = child.enter(Layer::Step);
        let ensure = child.enter(Layer::Ensure);
        std::thread::sleep(std::time::Duration::from_millis(2));
        child.exit(ensure);
        child.exit(step);
        log.absorb(&mut child);
        log.exit(run);

        assert_eq!(log.calls(Layer::Run), 1);
        assert_eq!(log.calls(Layer::Step), 1);
        assert!(log.self_ns(Layer::Ensure) >= 2_000_000);
        let run_span = log.spans().iter().find(|s| s.layer == Layer::Run).unwrap();
        let total = run_span.end_ns - run_span.start_ns;
        let sum: u64 = Layer::ALL.iter().map(|&l| log.self_ns(l)).sum();
        assert_eq!(sum, total, "self times partition the top-level span");
        assert_eq!(log.top_ns(), total);
        let step_span = log.spans().iter().find(|s| s.layer == Layer::Step).unwrap();
        assert_eq!(step_span.parent, run_span.id, "absorbed top-level span gains a parent");
    }

    #[test]
    fn full_buffer_counts_but_keeps_aggregating() {
        let mut log = SpanLog::on(0, 1);
        for _ in 0..3 {
            let s = log.enter(Layer::Drain);
            log.exit(s);
        }
        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.calls(Layer::Drain), 3);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::off();
        let s = log.enter(Layer::Step);
        log.exit(s);
        assert_eq!(log.calls(Layer::Step), 0);
        assert!(log.spans().is_empty());
    }
}
