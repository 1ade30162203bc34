//! Property test: the `*_blocking` helpers are a pure adapter over the
//! `IoPort` surface — a seeded command workload driven through the
//! blocking helpers and the same workload driven through raw
//! `submit`/`poll`/`completions_into` calls must produce identical
//! completion timestamps.

use nvme::{CmdTag, CommandKind, Completion, IoCommand};
use simkit::{DetRng, SimDuration, SimTime};
use xssd_core::{Cluster, VillarsConfig};

/// One step of the seeded workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { lba: u64, blocks: u32 },
    Read { lba: u64, blocks: u32 },
    Flush,
}

fn workload(seed: u64, len: usize) -> Vec<(SimDuration, Op)> {
    let mut rng = DetRng::new(seed);
    (0..len)
        .map(|_| {
            let gap = SimDuration::from_micros(rng.uniform(1, 40));
            // Stay well inside the tiny conventional namespace.
            let lba = rng.uniform(0, 100);
            let blocks = rng.uniform(1, 2) as u32;
            let op = match rng.uniform(0, 9) {
                0..=4 => Op::Write { lba, blocks },
                5..=7 => Op::Read { lba, blocks },
                _ => Op::Flush,
            };
            (gap, op)
        })
        .collect()
}

fn op_kind(op: Op) -> CommandKind {
    CommandKind::Io(match op {
        Op::Write { lba, blocks } => IoCommand::Write { lba, blocks },
        Op::Read { lba, blocks } => IoCommand::Read { lba, blocks },
        Op::Flush => IoCommand::Flush,
    })
}

/// Run the workload through the blocking helpers; returns each op's
/// completion instant.
fn run_closed_loop_helpers(ops: &[(SimDuration, Op)]) -> Vec<SimTime> {
    let mut cl = Cluster::new();
    let dev = cl.add_device(VillarsConfig::small());
    let mut now = SimTime::ZERO;
    let mut times = Vec::with_capacity(ops.len());
    for &(gap, op) in ops {
        now += gap;
        now = match op {
            Op::Write { lba, blocks } => cl.block_write_blocking(dev, now, lba, blocks),
            Op::Read { lba, blocks } => cl.block_read_blocking(dev, now, lba, blocks),
            Op::Flush => cl.block_flush_blocking(dev, now),
        };
        times.push(now);
    }
    times
}

/// The same closed loop hand-rolled on the raw port surface: tagged
/// submission, event-driven polling, virtual-time jumps to the cluster's
/// next event.
fn run_raw_port(ops: &[(SimDuration, Op)]) -> Vec<SimTime> {
    let mut cl = Cluster::new();
    let dev = cl.add_device(VillarsConfig::small());
    let mut now = SimTime::ZERO;
    let mut times = Vec::with_capacity(ops.len());
    let mut drained: Vec<Completion> = Vec::new();
    for &(gap, op) in ops {
        now += gap;
        let tag = cl.submit(dev, now, op_kind(op));
        let done = wait_raw(&mut cl, dev, now, tag, &mut drained);
        assert!(done.entry.status.is_ok(), "op {op:?} failed: {:?}", done.entry.status);
        now = done.at;
        times.push(now);
    }
    times
}

fn wait_raw(
    cl: &mut Cluster,
    dev: usize,
    from: SimTime,
    tag: CmdTag,
    drained: &mut Vec<Completion>,
) -> Completion {
    let mut horizon = from;
    loop {
        cl.poll_device(dev, horizon);
        drained.clear();
        cl.completions_into(dev, horizon, drained);
        if let Some(c) = drained.iter().find(|c| c.entry.cid == tag.0) {
            return *c;
        }
        horizon = cl
            .next_event_after(horizon)
            .unwrap_or_else(|| panic!("cluster idle before cid {} completed", tag.0))
            .max(horizon);
    }
}

#[test]
fn blocking_helpers_equal_raw_port_timestamps() {
    for seed in [1u64, 0xBEEF, 0x5EED_CAFE] {
        let ops = workload(seed, 120);
        let blocking = run_closed_loop_helpers(&ops);
        let raw = run_raw_port(&ops);
        assert_eq!(blocking, raw, "timelines diverged for seed {seed:#x}");
        // Completion instants never run backwards under a closed loop.
        assert!(blocking.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn port_accounting_balances_after_closed_loop() {
    let ops = workload(7, 60);
    let mut cl = Cluster::new();
    let dev = cl.add_device(VillarsConfig::small());
    let mut now = SimTime::ZERO;
    for &(gap, op) in &ops {
        now += gap;
        now = match op {
            Op::Write { lba, blocks } => cl.block_write_blocking(dev, now, lba, blocks),
            Op::Read { lba, blocks } => cl.block_read_blocking(dev, now, lba, blocks),
            Op::Flush => cl.block_flush_blocking(dev, now),
        };
    }
    let stats = cl.device(dev).port_stats();
    assert_eq!(stats.submitted(), ops.len() as u64);
    assert_eq!(stats.completed(), ops.len() as u64);
    assert_eq!(stats.in_flight(), 0);
    // Closed loop: the high-water mark is exactly one in-flight command.
    assert_eq!(stats.max_in_flight(), 1);
}
