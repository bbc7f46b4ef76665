//! Self-test of the benchmark: every workload at a tiny size, untraced and
//! traced, prints exactly the metrics `BENCHMARK.json` declares with their
//! units, and a corrupted expected digest or payload, or payloads that
//! never reach their receivers, show up as failed checks, so the output
//! checks are live.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use shrimp_perfbench::{run, Config, Corrupt, Report, Scale, Workload, DEV_SEEDS};

fn tiny(workload: Workload, trace: bool, corrupt: Option<Corrupt>) -> Report {
    let cfg =
        Config { workload, seed: DEV_SEEDS[0], seconds: 0.02, trace, scale: Scale::Tiny, corrupt };
    run(&cfg).expect("tiny workloads run without traps")
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`, which
/// holds one metric object per line.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let field = |line: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        let start = line.find(&tag).expect("field present") + tag.len();
        line[start..][..line[start..].find('"').expect("closing quote")].to_string()
    };
    text.lines()
        .skip_while(|l| !l.contains(&format!("\"{list}\": [")))
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn printed(report: &Report) -> Vec<(String, String)> {
    report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.len() >= 6 && per_layer.len() >= 50);
    for workload in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let report = tiny(workload, trace, None);
            let name = workload.name();
            assert_eq!(&printed(&report), want, "{name} trace={trace}");
            assert_eq!(report.checks.failed, 0, "{name}: {:?}", report.checks.failures);
            assert!(report.checks.attempted > 0);
            let json = report.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
            for (metric, unit) in want {
                let entry = format!("\"{metric}\": {{\"value\": ");
                assert!(json.contains(&entry), "{name}: {metric} missing from {json}");
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{name}: {unit}");
            }
            assert_eq!(report.error_rate(), 0.0, "{name}");
            if trace {
                assert!(!report.spans.spans().is_empty(), "{name}: traced run keeps spans");
            } else {
                assert!(report.notes.iter().any(|n| n.contains("beyond p99")), "{name}");
                let value = |m: &str| report.metrics.iter().find(|x| x.name == m).unwrap().value;
                for m in ["msgs_per_s", "setup_s", "peak_rss_mb", "sim_makespan_us"] {
                    assert!(value(m) > 0.0, "{name}: {m} reads 0");
                }
            }
        }
    }
}

#[test]
fn corrupted_expected_outputs_make_the_error_rate_non_zero() {
    for workload in Workload::ALL {
        for corrupt in [Corrupt::Digest, Corrupt::Payload, Corrupt::Stale] {
            let report = tiny(workload, false, Some(corrupt));
            assert!(report.error_rate() > 0.0, "{} {corrupt:?} went unnoticed", workload.name());
            assert!(report.json().starts_with("{\"correct\": false"));
            let caught_by = if corrupt == Corrupt::Digest { "digest" } else { "differ" };
            let failures = &report.checks.failures;
            assert!(failures.iter().any(|f| f.contains(caught_by)), "{corrupt:?}: {failures:?}");
        }
    }
}

#[test]
fn the_seed_fixes_the_simulated_figures() {
    let sim = |seed: u64| {
        let cfg = Config {
            workload: Workload::TenantServing,
            seed,
            seconds: 0.02,
            trace: false,
            scale: Scale::Tiny,
            corrupt: None,
        };
        let report = run(&cfg).expect("runs");
        report.metrics.into_iter().filter(|m| m.name.starts_with("sim_")).collect::<Vec<_>>()
    };
    assert_eq!(sim(DEV_SEEDS[1]), sim(DEV_SEEDS[1]), "same seed, same simulated figures");
}
