//! Determinism of the parallel engine: `Multicomputer::run` must produce
//! **bit-identical** simulated timelines and receiver memory at every
//! thread count — including `threads = 1` versus the pre-existing serial
//! driver — and the cross-shard merge order must equal the canonical
//! serial event order. These are the contracts `DESIGN.md` §6b states;
//! the CI determinism job runs exactly this suite.

use proptest::prelude::*;

use shrimp::{Multicomputer, MulticomputerConfig, NodePlan, PacketClass, SendOp, TraceFile};
use shrimp_mem::VirtAddr;
use shrimp_os::Pid;
use shrimp_sim::{merge_tag, EventQueue, MergeQueue, SimTime};

const SEND_BASE: u64 = 0x10_0000;
const RECV_BASE: u64 = 0x40_0000;

/// Which receiver each sender `2p` streams to. Every receiver hears
/// exactly one sender and sends nothing, so both layouts are independent
/// flows that the serial driver and the sharded engine must agree on.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// `2p → 2p+1`: neighbours, so under block ownership almost every
    /// flow stays inside one shard.
    Paired,
    /// `2p → n-1-2p`: receivers in reverse order, so most flows cross a
    /// shard boundary and go through the mailboxes.
    Crossed,
}

/// An `n`-node machine with disjoint sender→receiver pairs (`2p → 2p+1`)
/// and a plan of `msgs` sends of `bytes` bytes per pair. Every pair's
/// fill pattern depends on the sender index so receiver memories differ.
fn paired_stream(n: u16, msgs: usize, bytes: u64) -> (Multicomputer, Vec<NodePlan>) {
    stream(Layout::Paired, MulticomputerConfig::default(), n, msgs, bytes)
}

/// [`paired_stream`] with the receivers chosen by `layout`, on nodes
/// built from `config`.
fn stream(
    layout: Layout,
    config: MulticomputerConfig,
    n: u16,
    msgs: usize,
    bytes: u64,
) -> (Multicomputer, Vec<NodePlan>) {
    let mut mc = Multicomputer::new(n, config);
    let mut plans = Vec::new();
    for p in 0..(n as usize / 2) {
        let s = 2 * p;
        let r = match layout {
            Layout::Paired => s + 1,
            Layout::Crossed => n as usize - 1 - s,
        };
        let spid = mc.spawn_process(s);
        let rpid = mc.spawn_process(r);
        mc.map_user_buffer(s, spid, SEND_BASE, 2).unwrap();
        mc.map_user_buffer(r, rpid, RECV_BASE, 2).unwrap();
        let dev = mc.export(r, rpid, VirtAddr::new(RECV_BASE), 2, s, spid).unwrap();
        let fill: Vec<u8> = (0..bytes).map(|i| (i as u8) ^ (s as u8)).collect();
        mc.write_user(s, spid, VirtAddr::new(SEND_BASE), &fill).unwrap();
        plans.push(NodePlan {
            node: s,
            ops: vec![
                SendOp {
                    pid: spid,
                    src_va: VirtAddr::new(SEND_BASE),
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

/// Whether a `SHRTRC01` export decodes and carries at least one span.
fn has_spans(trace: &[u8]) -> bool {
    TraceFile::decode(trace).is_some_and(|t| !t.spans.is_empty())
}

#[test]
fn digests_are_identical_across_thread_counts() {
    // 2-, 8- and 16-node streams, the sizes the throughput bench sweeps,
    // with neighbour pairs and with crossed pairs. Three threads make
    // uneven blocks (8 nodes: 3/3/2) with a pair straddling a boundary.
    for layout in [Layout::Paired, Layout::Crossed] {
        for (nodes, msgs, bytes) in [(2u16, 40, 1024u64), (8, 25, 1024), (16, 15, 512)] {
            let mut digests = Vec::new();
            for threads in [1usize, 2, 3, 4] {
                let config = MulticomputerConfig::default();
                let (mut mc, plans) = stream(layout, config, nodes, msgs, bytes);
                let report = mc.run(&plans, threads).unwrap();
                assert_eq!(report.messages, (nodes as u64 / 2) * msgs as u64);
                digests.push(mc.state_digest());
            }
            for (i, d) in digests.iter().enumerate().skip(1) {
                assert_eq!(*d, digests[0], "{layout:?} {nodes}-node: 1 vs {} threads", i + 1);
            }
        }
    }
}

#[test]
fn parallel_engine_matches_the_serial_driver() {
    // The pre-parallel path: one `send` at a time, `propagate` after each.
    let (mut serial, plans) = paired_stream(8, 20, 768);
    for plan in &plans {
        for op in &plan.ops {
            serial.send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
        }
    }
    serial.run_until_quiet();

    // Snapshot the digest before touching the machine again: `read_user`
    // itself mutates kernel state (context switch, PTE status bits).
    let serial_digest = serial.state_digest();
    let serial_mem: Vec<Vec<u8>> = (1..8)
        .step_by(2)
        .map(|r| serial.read_user(r, Pid::new(1), VirtAddr::new(RECV_BASE), 768).unwrap())
        .collect();

    for threads in [1usize, 3] {
        let (mut par, plans) = paired_stream(8, 20, 768);
        par.run(&plans, threads).unwrap();
        assert_eq!(
            par.state_digest(),
            serial_digest,
            "threads={threads} diverged from the serial driver"
        );
        for (i, r) in (1..8).step_by(2).enumerate() {
            let b = par.read_user(r, Pid::new(1), VirtAddr::new(RECV_BASE), 768).unwrap();
            assert_eq!(serial_mem[i], b, "receiver {r} memory diverged at threads={threads}");
        }
    }
}

#[test]
fn unified_engine_reproduces_the_serial_driver_bytes() {
    // The single-engine contract: the old serial API (`send` +
    // `run_until_quiet`) and the unified `run` entry point are the same
    // delivery core, so `state_digest` AND the exported trace bytes must
    // be identical — serial versus every thread count.
    let (mut serial, plans) = paired_stream(8, 20, 1024);
    serial.set_tracing(true);
    for plan in &plans {
        for op in &plan.ops {
            serial.send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
        }
    }
    serial.run_until_quiet();
    let serial_digest = serial.state_digest();
    let serial_trace = serial.export_trace_bin();
    assert!(has_spans(&serial_trace), "serial trace must contain spans");

    for threads in [1usize, 2, 4] {
        let (mut mc, plans) = paired_stream(8, 20, 1024);
        mc.set_tracing(true);
        mc.run(&plans, threads).unwrap();
        assert_eq!(
            mc.state_digest(),
            serial_digest,
            "threads={threads}: unified engine digest diverged from the serial driver"
        );
        assert_eq!(
            mc.export_trace_bin(),
            serial_trace,
            "threads={threads}: unified engine trace bytes diverged from the serial driver"
        );
    }
}

#[test]
fn tracing_is_invisible_to_state_digests() {
    // Satellite: the flight recorder is pure observation. Enabling it must
    // not move a single clock or byte — digests match the untraced run at
    // every thread count.
    for threads in [1usize, 2, 4] {
        let (mut plain, plans) = paired_stream(8, 15, 1024);
        plain.run(&plans, threads).unwrap();
        let (mut traced, plans) = paired_stream(8, 15, 1024);
        traced.set_tracing(true);
        traced.run(&plans, threads).unwrap();
        assert!(!traced.recorder().is_empty(), "tracing on but nothing recorded");
        assert_eq!(
            plain.state_digest(),
            traced.state_digest(),
            "threads={threads}: tracing changed the simulated timeline"
        );
    }
}

#[test]
fn traces_and_stats_are_bit_identical_across_thread_counts() {
    // The exported SHRTRC01 trace and the combined stats view are pure
    // functions of the simulated timeline: any thread count must produce
    // byte-identical output (the recorder merges shard rings in commit
    // order, exactly the serial event order).
    let mut traces = Vec::new();
    let mut stats = Vec::new();
    for threads in [1usize, 2, 4] {
        let (mut mc, plans) = paired_stream(8, 20, 1024);
        mc.set_tracing(true);
        mc.run(&plans, threads).unwrap();
        traces.push(mc.export_trace_bin());
        stats.push(mc.stats());
    }
    assert!(has_spans(&traces[0]), "trace must contain spans");
    assert_eq!(traces[0], traces[1], "trace: 1 vs 2 threads");
    assert_eq!(traces[1], traces[2], "trace: 2 vs 4 threads");
    assert_eq!(stats[0], stats[1], "stats: 1 vs 2 threads");
    assert_eq!(stats[1], stats[2], "stats: 2 vs 4 threads");
}

#[test]
fn merged_parallel_stats_equal_serial_stats() {
    // Satellite: the combined stats view after a parallel run must union
    // the per-shard counters into exactly what the serial driver counts.
    let (mut serial, plans) = paired_stream(8, 20, 768);
    for plan in &plans {
        for op in &plan.ops {
            serial.send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
        }
    }
    serial.run_until_quiet();
    let serial_stats = serial.stats();
    assert!(serial_stats.get("packets_sent") > 0 || serial_stats.iter().count() > 0);

    let (mut par, plans) = paired_stream(8, 20, 768);
    par.run(&plans, 2).unwrap();
    assert_eq!(par.stats(), serial_stats, "parallel merge lost or double-counted a counter");
}

#[test]
fn digests_distinguish_different_workloads() {
    // A digest that never changes proves nothing: different payload sizes
    // must produce different machine states.
    let (mut a, plans) = paired_stream(2, 5, 256);
    a.run(&plans, 2).unwrap();
    let (mut b, plans) = paired_stream(2, 5, 512);
    b.run(&plans, 2).unwrap();
    assert_ne!(a.state_digest(), b.state_digest());
}

/// The K×t serial-driver sweep on a 256-node mesh: every combination of
/// epoch window count (K = 1, 2, 8 lookahead windows per barrier
/// crossing) and worker count (t = 1–4; 3 makes uneven blocks) must
/// reproduce the serial driver's digest AND trace bytes exactly. Window
/// count only changes how much work runs between barriers, and the
/// owning shard only where a packet commits — never the commit order —
/// so twelve schedules collapse onto one timeline.
fn assert_big_mesh_matches_the_serial_driver(layout: Layout, config: MulticomputerConfig) {
    let (mut serial, plans) = stream(layout, config.clone(), 256, 10, 512);
    serial.set_tracing(true);
    for plan in &plans {
        for op in &plan.ops {
            serial.send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
        }
    }
    serial.run_until_quiet();
    let serial_digest = serial.state_digest();
    let serial_trace = serial.export_trace_bin();
    assert!(has_spans(&serial_trace), "serial trace must contain spans");

    for windows in [1usize, 2, 8] {
        for threads in [1usize, 2, 3, 4] {
            let (mut mc, plans) = stream(layout, config.clone(), 256, 10, 512);
            mc.set_epoch_windows(Some(windows));
            mc.set_tracing(true);
            mc.run(&plans, threads).unwrap();
            assert_eq!(
                mc.state_digest(),
                serial_digest,
                "{layout:?} K={windows} t={threads}: digest diverged from the serial driver"
            );
            assert_eq!(
                mc.export_trace_bin(),
                serial_trace,
                "{layout:?} K={windows} t={threads}: trace bytes diverged from the serial driver"
            );
        }
    }
}

#[test]
fn big_mesh_digest_and_trace_are_invariant_across_windows_and_threads() {
    assert_big_mesh_matches_the_serial_driver(Layout::Paired, MulticomputerConfig::default());
}

#[test]
fn crossed_big_mesh_digest_and_trace_are_invariant_across_windows_and_threads() {
    // Neighbour pairs rarely leave their shard, so this sweep keeps the
    // mailbox path under test: most flows cross a block boundary. Nodes
    // get 1 MB of memory (the layout uses a handful of pages) so the
    // whole-memory digests stay cheap.
    let mut config = MulticomputerConfig::default();
    config.node.machine.mem_bytes = 1024 * 1024;
    assert_big_mesh_matches_the_serial_driver(Layout::Crossed, config);
}

#[test]
fn merge_queue_ties_break_by_source_then_sequence() {
    let mut q = MergeQueue::new();
    let t = SimTime::from_nanos(100);
    q.push(t, merge_tag(3, 0), "late source");
    q.push(t, merge_tag(1, 1), "early source, later seq");
    q.push(t, merge_tag(1, 0), "early source, first seq");
    let order: Vec<_> = std::iter::from_fn(|| q.pop_within(None).map(|(_, i)| i)).collect();
    assert_eq!(order, ["early source, first seq", "early source, later seq", "late source"]);
}

proptest! {
    /// For any batch of timestamped packets with per-source sequence
    /// numbers, popping a [`MergeQueue`] — however thread interleaving
    /// ordered the insertions — yields exactly the order a serial
    /// [`EventQueue`] produces when fed the canonical `(time, tag)`
    /// sequence. This is the reduction the engine's determinism rests on:
    /// the parallel commit order *is* the serial event order.
    #[test]
    fn merge_order_equals_serial_event_order(
        batch in proptest::collection::vec((0u64..300, 0u16..6), 1..80),
        shuffle_seed in any::<u64>(),
    ) {
        // Tag each item in generation order (per-source sequence numbers).
        let mut next_seq = [0u64; 6];
        let keyed: Vec<(SimTime, u64, usize)> = batch
            .iter()
            .enumerate()
            .map(|(i, &(at, src))| {
                let tag = merge_tag(src, next_seq[src as usize]);
                next_seq[src as usize] += 1;
                (SimTime::from_nanos(at), tag, i)
            })
            .collect();

        // Canonical serial order: schedule into an EventQueue sorted by
        // (time, tag) — its insertion-order tie-break then matches the
        // tag order — and drain it.
        let mut canonical = keyed.clone();
        canonical.sort_by_key(|&(at, tag, _)| (at, tag));
        let mut eq = EventQueue::new();
        for &(at, _, item) in &canonical {
            eq.schedule(at, item);
        }
        let serial: Vec<(SimTime, usize)> =
            eq.drain_all().into_iter().map(|e| (e.at, e.payload)).collect();

        // Adversarial insertion order for the MergeQueue.
        let mut shuffled = keyed.clone();
        let mut rng = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (rng >> 33) as usize % (i + 1));
        }
        let mut mq = MergeQueue::new();
        for &(at, tag, item) in &shuffled {
            mq.push(at, tag, item);
        }
        let merged: Vec<(SimTime, usize)> =
            std::iter::from_fn(|| mq.pop_within(None)).collect();

        prop_assert_eq!(merged, serial);
    }

    /// The calendar wheel against a binary heap, under *interleaved*
    /// pushes and horizon-bounded pops — the access pattern the epoch
    /// loop actually drives. Times span several rungs, so the stream
    /// exercises the consumed-region (`cur`) insert path, slab buckets,
    /// the sorted spill lane, the overflow lane and rung re-seeding; at
    /// every step the wheel must pop exactly what the heap pops.
    #[test]
    fn wheel_pops_match_a_binary_heap_under_interleaved_horizons(
        script in proptest::collection::vec(
            (0u8..4, 0u64..200_000, 0u64..200_000),
            1..200,
        ),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut wheel: MergeQueue<usize> = MergeQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut next_tag = 0u64;

        // Reference semantics of `pop_within`: pop the minimum
        // `(time, tag)` entry iff its time is at or before the horizon.
        let heap_pop = |heap: &mut BinaryHeap<Reverse<(u64, u64, usize)>>,
                            horizon: Option<u64>| {
            match (heap.peek(), horizon) {
                (Some(&Reverse((at, _, _))), Some(h)) if at > h => None,
                _ => heap.pop().map(|Reverse((at, _, item))| (at, item)),
            }
        };

        for (i, &(kind, at, h)) in script.iter().enumerate() {
            if kind < 3 {
                // Push-heavy mix (3:1) so pops see a populated wheel.
                wheel.push(SimTime::from_nanos(at), next_tag, i);
                heap.push(Reverse((at, next_tag, i)));
                next_tag += 1;
            } else {
                let horizon = (h % 2 == 0).then_some(h);
                let got = wheel.pop_within(horizon.map(SimTime::from_nanos));
                let want = heap_pop(&mut heap, horizon);
                prop_assert_eq!(
                    got.map(|(t, item)| (t.as_nanos(), item)),
                    want,
                    "pop under horizon {:?} diverged at step {}",
                    horizon,
                    i
                );
            }
        }

        // Drain both to empty: the full residual orders must agree too.
        loop {
            let got = wheel.pop_within(None);
            let want = heap_pop(&mut heap, None);
            prop_assert_eq!(got.map(|(t, item)| (t.as_nanos(), item)), want, "drain diverged");
            if want.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }
}
