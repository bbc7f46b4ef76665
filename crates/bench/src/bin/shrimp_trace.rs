//! Offline analyzer for SHRIMP transfer traces.
//!
//! Reads a `SHRTRC01` trace — the one format the simulator writes
//! ([`shrimp::Multicomputer::export_trace_bin`], e.g. via
//! `host_throughput --trace-bin`), decoded by [`shrimp::TraceFile`] — and
//! reports where transfer time went:
//!
//! * per-stage latency percentiles (p50/p90/p99/max) from the same
//!   log-scaled histograms the simulator uses internally,
//! * per-node (sender) and per-link (src→dst) traffic breakdowns,
//! * the slowest N transfers with their dominant stage, and
//! * `--diff <other>`: the same percentile table for two traces side by
//!   side with deltas — byte-identical traces show every delta as 0 and
//!   exit 0; any difference exits 1 (usable as a CI regression gate).
//!
//! `--perfetto <out.json>` instead renders the trace as Chrome/Perfetto
//! trace-event JSON (load it at <https://ui.perfetto.dev> or
//! `chrome://tracing`) and exits. This is the only Perfetto writer: the
//! simulator itself never produces JSON traces.
//!
//! Run: `cargo run --release -p shrimp-bench --bin shrimp_trace -- \
//!       traces/sample_2node.shrtrc`
//!
//! A file that does not decode as `SHRTRC01` is reported and exits 1.

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

use shrimp::TraceFile;
use shrimp_sim::{Histogram, SpanRecord, Stage, STAGE_COUNT};

/// Duration of each pipeline stage of `span`, in nanoseconds.
fn stage_ns(span: &SpanRecord) -> [u64; STAGE_COUNT] {
    Stage::ALL.map(|stage| {
        let (start, end) = span.stage_bounds(stage);
        end.saturating_duration_since(start).as_nanos()
    })
}

fn total_ns(span: &SpanRecord) -> u64 {
    stage_ns(span).iter().sum()
}

/// The stage `span` spent the most time in.
fn dominant(span: &SpanRecord) -> Stage {
    let ns = stage_ns(span);
    let mut best = 0;
    for (i, &d) in ns.iter().enumerate() {
        if d > ns[best] {
            best = i;
        }
    }
    Stage::ALL[best]
}

/// Renders `t` as Chrome/Perfetto trace-event JSON: per-node
/// `process_name` metadata, one `"ph":"X"` complete event per span stage
/// (timestamps and durations in microseconds, spans in file order), and
/// a `"stats"` trailer with the per-stage summary (nanoseconds).
fn render_perfetto(t: &TraceFile) -> String {
    let mut out = String::with_capacity(512 + t.spans.len() * 5 * 160);
    out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
    let mut first = true;
    for i in 0..t.nodes {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{i},\"tid\":0,\
             \"args\":{{\"name\":\"node{i}\"}}}}"
        );
    }
    for span in &t.spans {
        for stage in Stage::ALL {
            let (start, end) = span.stage_bounds(stage);
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\":\"{}\",\"cat\":\"udma\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":{},\"tid\":{},\
                 \"args\":{{\"xfer\":\"{}\",\"bytes\":{}}}}}",
                stage.name(),
                start.as_micros_f64(),
                end.saturating_duration_since(start).as_micros_f64(),
                span.src,
                span.dst,
                span.id,
                span.bytes,
            );
        }
    }
    out.push_str("\n  ],\n");
    let _ = write!(
        out,
        "  \"stats\": {{\"spans\":{},\"dropped\":{},\"stages\":{{",
        t.recorded, t.dropped,
    );
    for (i, (stage, s)) in Stage::ALL.into_iter().zip(&t.stages).enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{}\":{{\"count\":{},\"mean_ns\":{:.1},\"min_ns\":{},\
             \"max_ns\":{}}}",
            if i == 0 { "" } else { "," },
            stage.name(),
            s.count,
            s.mean_ns,
            s.min_ns,
            s.max_ns,
        );
    }
    out.push_str("\n  }}\n}\n");
    out
}

/// Per-stage latency histograms plus the end-to-end total, rebuilt from
/// the retained spans with the simulator's own log-scaled [`Histogram`].
fn stage_histograms(t: &TraceFile) -> [Histogram; STAGE_COUNT + 1] {
    let mut hists: [Histogram; STAGE_COUNT + 1] = Default::default();
    for span in &t.spans {
        let ns = stage_ns(span);
        for (h, &d) in hists.iter_mut().zip(&ns) {
            h.record(d);
        }
        hists[STAGE_COUNT].record(ns.iter().sum());
    }
    hists
}

/// Row label for histogram index `i`: a stage name or `end-to-end`.
fn row_name(i: usize) -> &'static str {
    if i < STAGE_COUNT {
        Stage::ALL[i].name()
    } else {
        "end-to-end"
    }
}

/// The four reported figures of one histogram: p50/p90/p99/max (ns).
fn figures(h: &Histogram) -> [u64; 4] {
    [
        h.quantile(0.50).unwrap_or(0),
        h.quantile(0.90).unwrap_or(0),
        h.quantile(0.99).unwrap_or(0),
        h.max().unwrap_or(0),
    ]
}

fn print_stage_table(hists: &[Histogram; STAGE_COUNT + 1]) {
    println!("stage latency (ns)      count        p50        p90        p99        max");
    for (i, h) in hists.iter().enumerate() {
        let [p50, p90, p99, max] = figures(h);
        println!(
            "  {:<18} {:>8} {:>10} {:>10} {:>10} {:>10}",
            row_name(i),
            h.count(),
            p50,
            p90,
            p99,
            max
        );
    }
}

/// Breakdown rows capped for huge meshes; the cap is always announced.
const TOP_ROWS: usize = 8;

fn print_node_breakdown(t: &TraceFile) {
    // Aggregate by sender; index by node id (bounded by the header).
    let n = usize::from(t.nodes).max(1);
    let mut spans_by = vec![0u64; n];
    let mut bytes_by = vec![0u64; n];
    let mut ns_by = vec![0u64; n];
    for s in &t.spans {
        let i = usize::from(s.src).min(n - 1);
        spans_by[i] += 1;
        bytes_by[i] += u64::from(s.bytes);
        ns_by[i] += total_ns(s);
    }
    let mut order: Vec<usize> = (0..n).filter(|&i| spans_by[i] > 0).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(bytes_by[i]), i));
    let shown = order.len().min(TOP_ROWS);
    println!(
        "\nper-node (sender) breakdown{}:",
        if order.len() > shown {
            format!(" (top {shown} of {} senders)", order.len())
        } else {
            String::new()
        }
    );
    println!("  node      spans        bytes   mean end-to-end ns");
    for &i in &order[..shown] {
        println!(
            "  {:<6} {:>8} {:>12} {:>20}",
            i,
            spans_by[i],
            bytes_by[i],
            ns_by[i] / spans_by[i].max(1),
        );
    }
}

fn print_link_breakdown(t: &TraceFile) {
    // Aggregate by (src, dst); a stream workload has nodes/2 live links.
    let mut links: Vec<(u32, u64, u64, Histogram)> = Vec::new();
    for s in &t.spans {
        let key = (u32::from(s.src) << 16) | u32::from(s.dst);
        let slot = match links.iter_mut().find(|(k, ..)| *k == key) {
            Some(slot) => slot,
            None => {
                links.push((key, 0, 0, Histogram::default()));
                links.last_mut().expect("just pushed")
            }
        };
        slot.1 += 1;
        slot.2 += u64::from(s.bytes);
        slot.3.record(stage_ns(s)[Stage::Wire.index()]);
    }
    links.sort_by_key(|&(k, _, bytes, _)| (std::cmp::Reverse(bytes), k));
    let shown = links.len().min(TOP_ROWS);
    println!(
        "\nper-link breakdown{}:",
        if links.len() > shown {
            format!(" (top {shown} of {} links)", links.len())
        } else {
            String::new()
        }
    );
    println!("  link            spans        bytes     wire p99 ns");
    for (key, spans, bytes, wire) in &links[..shown] {
        let label = format!("{}\u{2192}{}", key >> 16, key & 0xffff);
        println!(
            "  {:<14} {:>8} {:>12} {:>15}",
            label,
            spans,
            bytes,
            wire.quantile(0.99).unwrap_or(0)
        );
    }
}

fn print_slowest(t: &TraceFile, top: usize) {
    let mut order: Vec<&SpanRecord> = t.spans.iter().collect();
    order.sort_by_cached_key(|s| (std::cmp::Reverse(total_ns(s)), s.id));
    let shown = order.len().min(top);
    println!("\nslowest {shown} transfers:");
    println!("  xfer             link        bytes      total ns   dominant stage");
    for s in &order[..shown] {
        let stage = dominant(s);
        let share = 100.0 * stage_ns(s)[stage.index()] as f64 / total_ns(s).max(1) as f64;
        println!(
            "  {:<16} {:<11} {:>8} {:>13}   {} ({share:.0}%)",
            s.id.to_string(),
            format!("{}\u{2192}{}", s.src, s.dst),
            s.bytes,
            total_ns(s),
            stage.name(),
        );
    }
}

/// Side-by-side percentile diff. Returns how many figures differ.
fn print_diff(a: &TraceFile, b: &TraceFile) -> usize {
    let (ha, hb) = (stage_histograms(a), stage_histograms(b));
    let mut differing = 0;
    println!("stage figure diff (ns): p50 p90 p99 max — (b - a)");
    for i in 0..=STAGE_COUNT {
        let (fa, fb) = (figures(&ha[i]), figures(&hb[i]));
        let mut deltas = String::new();
        for (x, y) in fa.iter().zip(fb.iter()) {
            let d = *y as i128 - *x as i128;
            if d != 0 {
                differing += 1;
            }
            deltas.push_str(&format!(" {d:+}"));
        }
        println!("  {:<18}{deltas}", row_name(i));
    }
    let total = 4 * (STAGE_COUNT + 1);
    println!("diff: {differing} of {total} stage figures differ");
    differing
}

fn load(path: &str) -> TraceFile {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        }
    };
    TraceFile::decode(&bytes).unwrap_or_else(|| {
        eprintln!("error: `{path}` is not a SHRTRC01 trace");
        std::process::exit(1);
    })
}

const USAGE: &str =
    "usage: shrimp_trace <trace> [--diff <other>] [--top <n>] [--perfetto <out.json>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut diff_path: Option<String> = None;
    let mut perfetto_path: Option<String> = None;
    let mut top = 5usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--diff" | "--top" | "--perfetto" => {
                let Some(v) = it.next() else {
                    eprintln!("error: {a} requires a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                match a.as_str() {
                    "--diff" => diff_path = Some(v.clone()),
                    "--perfetto" => perfetto_path = Some(v.clone()),
                    _ => match v.parse() {
                        Ok(n) => top = n,
                        Err(_) => {
                            eprintln!("error: --top needs an integer\n{USAGE}");
                            return ExitCode::from(2);
                        }
                    },
                }
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let trace = load(&path);
    if let Some(out) = perfetto_path {
        if let Err(e) = fs::write(&out, render_perfetto(&trace)) {
            eprintln!("error: cannot write `{out}`: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {}-span Perfetto trace to {out}", trace.spans.len());
        return ExitCode::SUCCESS;
    }
    println!(
        "trace: {path} — {} nodes, {} spans retained ({} recorded, {} ring-dropped)",
        trace.nodes,
        trace.spans.len(),
        trace.recorded,
        trace.dropped
    );
    if let Some(other) = diff_path {
        let b = load(&other);
        println!("  vs: {other} — {} nodes, {} spans retained", b.nodes, b.spans.len());
        let differing = print_diff(&trace, &b);
        return if differing == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    print_stage_table(&stage_histograms(&trace));
    print_node_breakdown(&trace);
    print_link_breakdown(&trace);
    print_slowest(&trace, top);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp::StageSummary;
    use shrimp_sim::{SimTime, XferId};

    /// A two-node trace with `stamps` as each span's six stage-boundary
    /// timestamps (node 0 → node 1, 4 KB each).
    fn trace(stamps: &[[u64; 6]]) -> TraceFile {
        let spans = stamps
            .iter()
            .enumerate()
            .map(|(seq, ts)| {
                let [a, b, c, d, e, f] = ts.map(SimTime::from_nanos);
                SpanRecord {
                    id: XferId::new(0, seq as u64),
                    src: 0,
                    dst: 1,
                    bytes: 4096,
                    initiated_at: a,
                    queued_at: b,
                    link_ready: c,
                    wire_done: d,
                    delivered_at: e,
                    status_at: f,
                }
            })
            .collect::<Vec<_>>();
        TraceFile {
            nodes: 2,
            recorded: spans.len() as u64,
            dropped: 0,
            stages: [StageSummary::default(); STAGE_COUNT],
            spans,
        }
    }

    const STAMPS: [[u64; 6]; 3] = [
        [0, 100, 300, 1300, 1500, 1600],
        [1000, 1100, 1400, 2400, 2600, 2700],
        [2000, 2050, 2500, 3900, 4100, 4200],
    ];

    #[test]
    fn binary_parse_recovers_stage_durations() {
        let t = TraceFile::decode(&trace(&STAMPS).encode()).expect("valid trace");
        assert_eq!(t.nodes, 2);
        assert_eq!(t.recorded, 3);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(stage_ns(&t.spans[0]), [100, 200, 1000, 200, 100]);
        assert_eq!(stage_ns(&t.spans[2]), [50, 450, 1400, 200, 100]);
        assert_eq!(total_ns(&t.spans[0]), 1600);
        assert_eq!(dominant(&t.spans[0]), Stage::Wire);
        assert_eq!(t.spans[0].src, 0);
        assert_eq!(t.spans[0].dst, 1);
    }

    #[test]
    fn truncated_or_bad_magic_is_rejected() {
        let good = trace(&STAMPS).encode();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let mut trailing = good.clone();
        trailing.push(0);
        // A bare 192-byte header claiming u32::MAX spans: the decoder
        // must reject it before sizing any buffer from the count.
        let mut huge_count = good[..192].to_vec();
        huge_count[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let cases: [(&str, &[u8]); 6] = [
            ("truncated record", &good[..good.len() - 1]),
            ("truncated header", &good[..191]),
            ("wrong magic", &bad_magic),
            ("not a trace at all", b"NOTATRACE"),
            ("trailing bytes", &trailing),
            ("span count u32::MAX", &huge_count),
        ];
        for (what, bytes) in cases {
            assert!(TraceFile::decode(bytes).is_none(), "{what}");
        }
    }

    #[test]
    fn perfetto_render_carries_nodes_stages_and_stats() {
        let t = trace(&STAMPS);
        let json = render_perfetto(&t);
        let lines: Vec<&str> = json.lines().collect();
        let names = lines.iter().filter(|l| l.contains("\"process_name\"")).count();
        assert_eq!(names, 2, "one process_name record per node");
        let events: Vec<&&str> = lines.iter().filter(|l| l.contains("\"ph\":\"X\"")).collect();
        assert_eq!(events.len(), 5 * t.spans.len(), "five complete events per span");
        for (seq, chunk) in events.chunks(STAGE_COUNT).enumerate() {
            for (line, stage) in chunk.iter().zip(Stage::ALL) {
                assert!(line.contains(&format!("\"name\":\"{}\"", stage.name())), "{line}");
                assert!(line.contains(&format!("\"xfer\":\"0:{seq}\"")), "{line}");
            }
        }
        assert!(events[0].contains("\"ts\":0.000,\"dur\":0.100,"), "{}", events[0]);
        let stats = json.find("\"stats\": {\"spans\":3,\"dropped\":0,").expect("stats trailer");
        for stage in Stage::ALL {
            assert!(json[stats..].contains(&format!("\"{}\":{{\"count\":", stage.name())));
        }
        assert!(json.ends_with("\n  }}\n}\n"), "trailer closes the object");
    }

    #[test]
    fn stage_histograms_report_percentiles() {
        let hists = stage_histograms(&trace(&STAMPS));
        let wire = &hists[Stage::Wire.index()];
        assert_eq!(wire.count(), 3);
        assert_eq!(wire.max(), Some(1400));
        assert!(wire.quantile(0.50).unwrap() >= 1000);
        let end_to_end = &hists[STAGE_COUNT];
        assert_eq!(end_to_end.count(), 3);
        assert_eq!(end_to_end.max(), Some(2200));
    }

    #[test]
    fn identical_traces_diff_to_zero() {
        let (a, b) = (trace(&STAMPS), trace(&STAMPS));
        assert_eq!(print_diff(&a, &b), 0);
        // A genuinely different trace must not diff to zero.
        let mut other = STAMPS;
        other[0][3] += 5000;
        assert_ne!(print_diff(&a, &trace(&other)), 0);
    }
}
