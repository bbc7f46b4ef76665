//! The transfer-level flight recorder: a traced UDMA transfer must yield
//! one five-stage span whose stage boundaries never run backwards, the
//! `SHRTRC01` export must decode and carry every stage, and tracing must
//! be pure observation (nothing recorded — and nothing exported — when
//! off).

use std::collections::BTreeSet;

use shrimp::{Multicomputer, MulticomputerConfig, TraceFile};
use shrimp_mem::VirtAddr;
use shrimp_os::Pid;
use shrimp_sim::Stage;

const SEND_VA: u64 = 0x10000;
const RECV_VA: u64 = 0x40000;

/// A 2-node machine with a deliberate-update mapping from node 0 to
/// node 1, ready to send out of `SEND_VA` into `RECV_VA`.
fn two_nodes() -> (Multicomputer, Pid, Pid, u64) {
    let mut mc = Multicomputer::new(2, MulticomputerConfig::default());
    let s = mc.spawn_process(0);
    let r = mc.spawn_process(1);
    mc.map_user_buffer(0, s, SEND_VA, 4).unwrap();
    mc.map_user_buffer(1, r, RECV_VA, 4).unwrap();
    let dev_page = mc.export(1, r, VirtAddr::new(RECV_VA), 4, 0, s).unwrap();
    (mc, s, r, dev_page)
}

#[test]
fn four_kb_transfer_records_one_monotonic_five_stage_span() {
    let (mut mc, s, r, dev_page) = two_nodes();
    mc.set_tracing(true);
    assert!(mc.tracing());
    let data: Vec<u8> = (0..4096u64).map(|i| i as u8).collect();
    mc.write_user(0, s, VirtAddr::new(SEND_VA), &data).unwrap();
    mc.send(0, s, VirtAddr::new(SEND_VA), dev_page, 0, 4096).unwrap();
    assert_eq!(mc.read_user(1, r, VirtAddr::new(RECV_VA), 4096).unwrap(), data);

    assert_eq!(mc.recorder().len(), 1, "one packet, one span");
    let span = *mc.recorder().iter().next().unwrap();
    assert_eq!(span.src, 0);
    assert_eq!(span.dst, 1);
    assert_eq!(span.bytes, 4096);
    assert_eq!(span.id.node(), 0, "the sending NIC mints the id");
    assert!(span.is_monotonic(), "stage boundaries ran backwards: {span:?}");
    // Every stage is individually well-ordered and they chain end-to-start.
    let mut prev_end = None;
    for stage in Stage::ALL {
        let (start, end) = span.stage_bounds(stage);
        assert!(start <= end, "{stage} runs backwards");
        if let Some(p) = prev_end {
            assert_eq!(start, p, "{stage} does not start where the previous stage ended");
        }
        prev_end = Some(end);
    }
}

#[test]
fn export_trace_parses_with_all_stages_in_order() {
    let (mut mc, s, _r, dev_page) = two_nodes();
    mc.set_tracing(true);
    mc.write_user(0, s, VirtAddr::new(SEND_VA), &[0xA5u8; 4096]).unwrap();
    for _ in 0..3 {
        mc.send(0, s, VirtAddr::new(SEND_VA), dev_page, 0, 4096).unwrap();
    }
    let trace = TraceFile::decode(&mc.export_trace_bin()).expect("export decodes");
    assert_eq!(trace.nodes, 2);

    let ids: BTreeSet<_> = trace.spans.iter().map(|span| span.id).collect();
    assert_eq!((trace.spans.len(), ids.len()), (3, 3), "three transfers, three correlation ids");
    for span in &trace.spans {
        assert_eq!(span.bytes, 4096);
        // Every span carries all five stages, each starting where the
        // previous one ended.
        let mut prev_end = None;
        for stage in Stage::ALL {
            let (start, end) = span.stage_bounds(stage);
            assert!(start <= end, "{}/{stage}: negative duration", span.id);
            if let Some(p) = prev_end {
                assert_eq!(start, p, "{}: gap before {stage}", span.id);
            }
            prev_end = Some(end);
        }
    }

    // The summary agrees with the recorder.
    assert_eq!(trace.recorded, 3);
    assert_eq!(trace.dropped, 0);
    for (stage, summary) in Stage::ALL.into_iter().zip(&trace.stages) {
        assert_eq!(summary.count, 3, "{stage} count");
    }
}

#[test]
fn tracing_off_records_and_exports_nothing() {
    let (mut mc, s, _r, dev_page) = two_nodes();
    mc.write_user(0, s, VirtAddr::new(SEND_VA), &[1u8; 4096]).unwrap();
    mc.send(0, s, VirtAddr::new(SEND_VA), dev_page, 0, 4096).unwrap();
    assert!(!mc.tracing());
    assert!(mc.recorder().is_empty());
    assert_eq!(mc.recorder().total_recorded(), 0);
    let trace = TraceFile::decode(&mc.export_trace_bin()).expect("export decodes");
    assert!(trace.spans.is_empty(), "nothing traced, nothing exported");
    assert_eq!(trace.recorded, 0);
}

#[test]
fn machine_event_rings_capture_the_initiation_sequence() {
    let (mut mc, s, _r, dev_page) = two_nodes();
    mc.set_tracing(true);
    mc.write_user(0, s, VirtAddr::new(SEND_VA), &[2u8; 256]).unwrap();
    mc.send(0, s, VirtAddr::new(SEND_VA), dev_page, 0, 256).unwrap();
    // The sender's typed event ring saw the STORE/LOAD pair and the
    // message completion; each event renders its own line of text.
    let events = mc.node(0).os().machine().events();
    let text: Vec<String> =
        events.iter().skip(events.len().saturating_sub(16)).map(|e| e.to_string()).collect();
    assert!(text.iter().any(|l| l.contains("STORE")), "no proxy STORE in {text:?}");
    assert!(text.iter().any(|l| l.contains("LOAD")), "no status LOAD in {text:?}");
    assert!(text.iter().any(|l| l.contains("message done")), "no completion in {text:?}");
}
