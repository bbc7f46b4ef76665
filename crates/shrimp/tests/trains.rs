//! The sharded engine stores each node's sends as message trains,
//! `(op, messages left)`, and one encoder builds them from both plans and
//! program emissions. A train must not depend on how its sends arrived:
//! plans that split a train across [`NodePlan`]s run as the one
//! concatenated plan, and a reactive program that re-emits the op of a
//! still-unfinished train extends that train. Both are pinned to the
//! machine digest and to the run counters (`delivery/runs_committed`,
//! `delivery/run_splits`), which move if any train boundary moves.

use std::any::Any;

use shrimp::{
    DeliveryEvent, Multicomputer, MulticomputerConfig, NodePlan, PacketClass, ProgramPlan, SendOp,
    ShrimpNode, StreamProgram, TrafficProgram,
};
use shrimp_mem::VirtAddr;
use shrimp_os::{Pid, Trap};

const NBYTES: u64 = 1024;

/// `[A×10] + [A×30, B×5]` on node 0 (t = 1 and 2): `state_digest`,
/// `delivery/runs_committed`, `delivery/run_splits`.
const SPLIT_PLANS: (u64, u64, u64) = (0x3739_455b_f772_06a6, 2, 0);

/// The reactive re-emission run (t = 1 and 2): `state_digest`,
/// `delivery/runs_committed`, `delivery/run_splits`.
const REEMISSION: (u64, u64, u64) = (0xf7c8_d904_9082_e682, 40, 37);

/// A 2-node machine where each node exports a one-page window to the
/// other. Returns the machine and, per node, the send op for offset
/// `k · NBYTES` of its outbound window.
fn build() -> (Multicomputer, [impl Fn(u64) -> SendOp; 2]) {
    let mut mc = Multicomputer::new(2, MulticomputerConfig::default());
    let pids: [Pid; 2] = [mc.spawn_process(0), mc.spawn_process(1)];
    for (node, &pid) in pids.iter().enumerate() {
        mc.map_user_buffer(node, pid, 0x10_0000, 1).unwrap();
        mc.map_user_buffer(node, pid, 0x40_0000, 1).unwrap();
        let fill: Vec<u8> = (0..NBYTES).map(|i| (i as u8) ^ (node as u8 * 0x5a)).collect();
        mc.write_user(node, pid, VirtAddr::new(0x10_0000), &fill).unwrap();
    }
    let dev_01 = mc.export(1, pids[1], VirtAddr::new(0x40_0000), 1, 0, pids[0]).unwrap();
    let dev_10 = mc.export(0, pids[0], VirtAddr::new(0x40_0000), 1, 1, pids[1]).unwrap();
    mc.set_tracing(true);
    let op = move |pid: Pid, dev_page: u64| {
        move |k: u64| SendOp {
            pid,
            src_va: VirtAddr::new(0x10_0000),
            dev_page,
            dev_off: k * NBYTES,
            nbytes: NBYTES,
            class: PacketClass::User,
        }
    };
    (mc, [op(pids[0], dev_01), op(pids[1], dev_10)])
}

/// What a run left behind: digest, run counters, trace bytes.
fn observe(mc: &Multicomputer) -> ((u64, u64, u64), Vec<u8>) {
    let snap = mc.metrics_snapshot();
    let counter = |name| snap.get("delivery", name, None).unwrap();
    ((mc.state_digest(), counter("runs_committed"), counter("run_splits")), mc.export_trace_bin())
}

#[test]
fn plans_that_split_a_train_run_as_one_train() {
    for threads in [1usize, 2] {
        for windows in [None, Some(1)] {
            let run = |split: bool| {
                let (mut mc, [to_1, _]) = build();
                mc.set_epoch_windows(windows);
                let (a, b) = (to_1(0), to_1(1));
                let mut tail = vec![a; 30];
                tail.extend([b; 5]);
                let plans = if split {
                    vec![NodePlan { node: 0, ops: vec![a; 10] }, NodePlan { node: 0, ops: tail }]
                } else {
                    let mut ops = vec![a; 10];
                    ops.extend(tail);
                    vec![NodePlan { node: 0, ops }]
                };
                mc.run(&plans, threads).unwrap();
                observe(&mc)
            };
            let (split, whole) = (run(true), run(false));
            assert_eq!(split.0, whole.0, "t={threads} windows={windows:?}");
            assert!(split.1 == whole.1, "trace bytes: t={threads} windows={windows:?}");
            if windows.is_none() {
                assert_eq!(split.0, SPLIT_PLANS, "t={threads}: the train boundaries moved");
            }
        }
    }
}

/// Emits `first` trains up front and, at its first step with deliveries,
/// `again` more sends of the same op.
struct Reemit {
    op: SendOp,
    first: usize,
    again: usize,
    reacted: bool,
}

impl TrafficProgram for Reemit {
    fn step(
        &mut self,
        _node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        if inbox.is_empty() {
            out.extend(std::iter::repeat_n(self.op, self.first));
        } else if !self.reacted {
            out.extend(std::iter::repeat_n(self.op, self.again));
            self.reacted = true;
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.reacted
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn reactive_reemission_extends_the_unfinished_train() {
    let mut seen = Vec::new();
    for threads in [1usize, 2] {
        let (mut mc, [to_1, to_0]) = build();
        // One window (16 sends) per crossing: node 0's 40-send train is
        // still unfinished when node 1's messages wake its program.
        mc.set_epoch_windows(Some(1));
        let mut programs = vec![
            ProgramPlan {
                node: 0,
                program: Box::new(Reemit { op: to_1(0), first: 40, again: 8, reacted: false }),
            },
            ProgramPlan { node: 1, program: Box::new(StreamProgram::new(vec![to_0(0); 3])) },
        ];
        let report = mc.run_programs(&mut programs, threads).unwrap();
        assert_eq!(report.messages, 40 + 8 + 3, "t={threads}");
        assert!(programs[0].program.finished(), "t={threads}: node 0 never reacted");
        seen.push(observe(&mc));
    }
    assert_eq!(seen[0].0, seen[1].0, "re-emission must be thread-count independent");
    assert!(seen[0].1 == seen[1].1, "trace bytes must be thread-count independent");
    assert_eq!(seen[0].0, REEMISSION, "the train boundaries moved");
}
