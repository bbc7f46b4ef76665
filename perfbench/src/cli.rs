//! The benchmark's command line.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload. A traced run also writes its spans to
//! `perfbench/out/<workload>-seed<n>.spans.tsv`. A human-readable report
//! goes to standard error; the last line of standard output is the JSON
//! result.

use std::io::Write;

use crate::{run, Config, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <pair_stream|mesh_stream_t2|tenant_serving> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parses `args`, runs the workload and prints the result. Returns the
/// process exit code: 0 after printing a result, 1 when the simulator
/// failed, 2 on a bad command line.
pub fn main(args: impl Iterator<Item = String>) -> i32 {
    let cfg = match parse(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: simulator error: {e}", cfg.workload.name());
            return 1;
        }
    };
    eprintln!(
        "{} seed {} ({})",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for m in &report.metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in report.notes.iter().chain(&report.checks.failures) {
        eprintln!("  {note}");
    }
    eprintln!(
        "  error_rate {} ({} of {} checks failed)",
        report.error_rate(),
        report.checks.failed,
        report.checks.attempted
    );
    if cfg.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.spans.tsv", cfg.workload.name(), cfg.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            report.spans.write_tsv(&mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", report.json());
    0
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        corrupt: None,
    })
}
