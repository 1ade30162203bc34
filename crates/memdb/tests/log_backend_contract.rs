//! Shared contract suite for every [`LogBackend`]: the WAL manager and
//! the Fig. 9 runner assume these invariants regardless of which device
//! backs the log.
//!
//! - `append` never returns before its call instant and is monotonic
//!   under a monotonic clock;
//! - `sync` dominates every prior append — blocking or asynchronous;
//! - `bytes_written` accounts exactly the bytes handed over;
//! - the asynchronous path delivers every submitted unit exactly once,
//!   never durable before its submission.

use memdb::{AppendTag, LogBackend, NoLog, NvmeLog, PmConfig, PmLog, XssdLog};
use simkit::{SimDuration, SimTime};
use ssd::{ConventionalSsd, SsdConfig};
use xssd_core::{Cluster, VillarsConfig};

fn nolog() -> NoLog {
    NoLog::new()
}

fn pmlog() -> PmLog {
    PmLog::new(PmConfig::default())
}

fn nvmelog() -> NvmeLog {
    NvmeLog::new(ConventionalSsd::new(SsdConfig::small()), 0, 64)
}

fn xssdlog() -> XssdLog {
    let mut cluster = Cluster::new();
    let dev = cluster.add_device(VillarsConfig::small());
    XssdLog::new(cluster, dev, "villars-sram")
}

/// Blocking path: append instants are causal and monotonic, the final
/// sync dominates every one of them, and the byte ledger balances.
fn check_blocking_contract<B: LogBackend>(b: &mut B) {
    let mut now = SimTime::ZERO;
    let mut total = 0u64;
    let mut returns = Vec::new();
    for i in 0..8usize {
        let data = vec![0xA5u8; 512 * (i + 1)];
        let t = b.append(now, &data);
        assert!(t >= now, "{}: append returned before its call instant", b.name());
        if let Some(&prev) = returns.last() {
            assert!(t >= prev, "{}: append returns ran backwards", b.name());
        }
        total += data.len() as u64;
        returns.push(t);
        now = t + SimDuration::from_micros(3);
    }
    let t_sync = b.sync(now);
    assert!(t_sync >= now, "{}: sync returned before its call instant", b.name());
    for &t in &returns {
        assert!(t_sync >= t, "{}: sync at {t_sync} does not dominate append at {t}", b.name());
    }
    assert_eq!(b.bytes_written(), total, "{}: byte ledger mismatch", b.name());
}

/// Drive the asynchronous path dry, jumping virtual time to each next
/// completion bound — which every backend with a unit in flight must give.
fn drain_until_dry<B: LogBackend>(b: &mut B, mut now: SimTime) -> Vec<(AppendTag, SimTime)> {
    let mut out = Vec::new();
    let mut rounds = 0u32;
    while b.appends_in_flight() > 0 {
        b.drain_completions(now, &mut out);
        if b.appends_in_flight() == 0 {
            break;
        }
        let hint = b
            .next_completion_at()
            .unwrap_or_else(|| panic!("{}: a unit in flight but no completion bound", b.name()));
        now = hint.max(now + SimDuration::from_nanos(100));
        rounds += 1;
        assert!(rounds < 100_000, "{}: appends never completed", b.name());
    }
    out
}

/// Async path: every unit is delivered exactly once, durability never
/// precedes submission, and the ledger still balances.
fn check_async_contract<B: LogBackend>(b: &mut B) {
    let mut now = SimTime::ZERO;
    let mut submitted = Vec::new();
    let mut total = 0u64;
    for _ in 0..4 {
        let data = vec![0x3Cu8; 1024];
        let (tag, handoff) = b.append_submit(now, &data);
        assert!(handoff >= now, "{}: hand-off before the submit instant", b.name());
        total += data.len() as u64;
        submitted.push((tag, now));
        now = handoff.max(now);
    }
    assert_eq!(b.appends_in_flight(), 4, "{}: in-flight count after 4 submits", b.name());

    let done = drain_until_dry(b, now);
    assert_eq!(done.len(), 4, "{}: delivered unit count", b.name());
    assert_eq!(b.appends_in_flight(), 0);
    let mut tags: Vec<AppendTag> = done.iter().map(|d| d.0).collect();
    tags.sort();
    tags.dedup();
    assert_eq!(tags.len(), 4, "{}: a unit was delivered twice", b.name());
    for &(tag, at) in &done {
        let (_, sub_at) = submitted.iter().find(|(t, _)| *t == tag).expect("unknown tag");
        assert!(at >= *sub_at, "{}: unit durable before it was submitted", b.name());
    }
    assert!(
        done.windows(2).all(|w| w[0].1 <= w[1].1),
        "{}: completion instants delivered out of order",
        b.name()
    );
    assert_eq!(b.bytes_written(), total, "{}: byte ledger mismatch (async)", b.name());
}

/// `sync` called with units still in flight dominates them, and their
/// completions are still delivered (exactly once) afterwards.
fn check_sync_dominates_async<B: LogBackend>(b: &mut B) {
    let mut now = SimTime::from_micros(5);
    for _ in 0..3 {
        let (_, handoff) = b.append_submit(now, &vec![9u8; 2048]);
        now = now.max(handoff);
    }
    assert_eq!(b.appends_in_flight(), 3);
    let t_sync = b.sync(now);
    assert!(t_sync >= now);
    let mut out = Vec::new();
    b.drain_completions(t_sync, &mut out);
    assert_eq!(out.len(), 3, "{}: sync lost in-flight units", b.name());
    assert_eq!(b.appends_in_flight(), 0);
    for &(_, at) in &out {
        assert!(
            at <= t_sync,
            "{}: sync at {t_sync} does not dominate a unit durable at {at}",
            b.name()
        );
    }
}

macro_rules! contract_tests {
    ($mod_name:ident, $ctor:ident) => {
        mod $mod_name {
            use super::*;

            #[test]
            fn blocking_contract() {
                check_blocking_contract(&mut $ctor());
            }

            #[test]
            fn async_contract() {
                check_async_contract(&mut $ctor());
            }

            #[test]
            fn sync_dominates_async() {
                check_sync_dominates_async(&mut $ctor());
            }
        }
    };
}

contract_tests!(no_log, nolog);
contract_tests!(pm_log, pmlog);
contract_tests!(nvme_log, nvmelog);
contract_tests!(xssd_log, xssdlog);
