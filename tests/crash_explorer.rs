//! Exhaustive crash explorer: the §4.1 durability contract checked at a
//! power cut after *every* event of one single-device log scenario, not at
//! sampled instants (docs/ROBUSTNESS.md, "Log lifecycle").
//!
//! The scenario: a host commits transactions against an in-memory database
//! on an open-loop schedule and hands each one's records to the device
//! through `XssdLog`'s submission half (`append_submit`, polled with
//! `drain_completions`). Between host steps it steps the cluster one event
//! at a time with `Cluster::next_event_after`. Part-way through it
//! quiesces and takes a checkpoint at the acknowledged frontier
//! (generation 1); later it quiesces again and tears generation 2 part-way
//! into its slot (`Checkpointer::checkpoint_partial`).
//!
//! An uncut run counts the events, `N`, and records a ledger of
//! `(log end offset, database fingerprint)` per transaction. Then, for every
//! `k` in `1..=N`, a fresh run stops after event `k`, cuts the power,
//! reboots the device and recovers the way a host would: the newest valid
//! snapshot, then every durable log byte after its offset (Starcounter's
//! reload rule, SNIPPETS.md). Three laws hold at every cut:
//!
//! 1. the device's durable frontier covers every byte whose completion the
//!    host drained;
//! 2. the destaged log equals the written log's prefix, byte for byte;
//! 3. the recovered fingerprint is the ledger's entry for the last
//!    transaction ending at or before the durable frontier: the committed
//!    prefix is exact, no uncommitted tail resurrects, and after the torn
//!    generation restore falls back to generation 1.
//!
//! Cut points are the events the script steps. Events a blocking host call
//! runs inside itself are not cut points: the checkpoint's block write and
//! flush, and an `x_pwrite` that waits for intake-queue space. Cutting
//! there, or at an instant between events, needs ROADMAP item 14; the
//! replicated scenario is item 26's slice 2.

use std::ops::ControlFlow;

use xssd_suite::db::{
    durable_log_stream, encode_txn, recover, Checkpointer, Database, LogBackend, TableId, XssdLog,
};
use xssd_suite::sim::{DetRng, SimDuration, SimTime};
use xssd_suite::xssd::{Cluster, VillarsConfig};

/// Transactions the host commits.
const TXNS: usize = 400;
/// Open-loop inter-arrival gap of the host's transactions.
const ARRIVAL: SimDuration = SimDuration::from_micros(4);
/// The host quiesces and checkpoints generation 1 before this transaction.
const CHECKPOINT_AT: usize = 100;
/// The host quiesces and tears generation 2 before this transaction.
const TORN_AT: usize = 200;
/// Bytes of generation 2's image that reach its slot before the tear.
const TORN_KEEP: usize = 6000;
/// Keys the transactions touch, in the scenario's one table.
const KEYS: u64 = 64;
const TABLE: TableId = 0;

/// One Villars device shaped like `chaos_tpcc`'s: the unit-test config with
/// a destage ring that keeps the whole run's log resident, and checkpoint
/// slots above it.
fn device() -> VillarsConfig {
    let mut cfg = VillarsConfig::small();
    cfg.conventional.geometry.blocks_per_die = 64; // 16 MiB raw flash
    cfg.conventional.buffer_pages = 64;
    cfg.cmb.size = 256 << 10;
    cfg.cmb.intake_queue_bytes = 16 << 10;
    cfg.destage.ring_lbas = 2048; // 8 MiB destage ring
    cfg
}

/// A database with the scenario's one table, as recovery starts it when no
/// snapshot survives.
fn empty_db() -> Database {
    let mut db = Database::new();
    assert_eq!(db.create_table("t"), TABLE);
    db
}

/// One run of the scenario, stopped after event `cut` (or run to the end).
struct Run {
    db: Database,
    rng: DetRng,
    log: XssdLog,
    dev: usize,
    ck: Checkpointer,
    now: SimTime,
    /// Events stepped so far.
    events: usize,
    /// Stop after this many events.
    cut: Option<usize>,
    /// Every byte handed to the device, in log order.
    written: Vec<u8>,
    /// Log end offset of each submitted transaction, by tag.
    ends: Vec<u64>,
    /// The highest end offset whose completion the host drained.
    acked: u64,
    /// `(end offset, fingerprint)` after each transaction, from `(0, empty)`:
    /// the oracle, kept by the uncut run only.
    ledger: Vec<(u64, u64)>,
    /// Whether generation 2 has been torn.
    torn: bool,
}

impl Run {
    fn new(cut: Option<usize>) -> Self {
        let mut cluster = Cluster::new();
        let dev = cluster.add_device(device());
        let db = empty_db();
        let ledger = vec![(0, db.fingerprint())];
        Run {
            db,
            rng: DetRng::new(0xC7A5_4E01),
            log: XssdLog::new(cluster, dev, "explorer"),
            dev,
            // Ping-pong slots above the 2048-LBA destage ring.
            ck: Checkpointer::new(dev, 2048, 1024),
            now: SimTime::ZERO,
            events: 0,
            cut,
            written: Vec::new(),
            ends: Vec::new(),
            acked: 0,
            ledger,
            torn: false,
        }
    }

    /// Run the script; `Break` when the cut is reached.
    fn script(&mut self) -> ControlFlow<()> {
        for i in 0..TXNS {
            let arrival = SimTime::ZERO + ARRIVAL * i as u64;
            while let Some(t) = self.next_event().filter(|t| *t <= arrival) {
                self.step(t)?;
            }
            self.now = self.now.max(arrival);
            if i == CHECKPOINT_AT || i == TORN_AT {
                self.quiesce()?;
                let cl = self.log.cluster_mut();
                if i == CHECKPOINT_AT {
                    self.now = self.ck.checkpoint(cl, self.now, &self.db, self.acked).0;
                } else {
                    let (t, meta) =
                        self.ck.checkpoint_partial(cl, self.now, &self.db, self.acked, TORN_KEEP);
                    assert!(TORN_KEEP < meta.bytes as usize, "the tear keeps a strict prefix");
                    self.now = t;
                    self.torn = true;
                }
            }
            self.commit();
        }
        while let Some(t) = self.next_event() {
            self.step(t)?;
        }
        ControlFlow::Continue(())
    }

    /// The cluster's next event after the host's clock.
    fn next_event(&mut self) -> Option<SimTime> {
        let cl = self.log.cluster_mut();
        cl.advance(self.now);
        cl.next_event_after(self.now)
    }

    /// Step the cluster to event instant `t`, then poll completions as the
    /// host does.
    fn step(&mut self, t: SimTime) -> ControlFlow<()> {
        self.log.cluster_mut().advance(t);
        self.now = t;
        self.drain();
        self.events += 1;
        if self.cut == Some(self.events) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Step events until every submitted transaction is acknowledged.
    fn quiesce(&mut self) -> ControlFlow<()> {
        while self.log.appends_in_flight() > 0 {
            let t = self.next_event().expect("an append in flight has an event ahead");
            self.step(t)?;
        }
        ControlFlow::Continue(())
    }

    fn drain(&mut self) {
        let mut done = Vec::new();
        self.log.drain_completions(self.now, &mut done);
        for (tag, _) in done {
            self.acked = self.acked.max(self.ends[tag.0 as usize]);
        }
    }

    /// Execute one transaction (upserts and deletes over a small key
    /// space) and submit its records.
    fn commit(&mut self) {
        let mut ctx = self.db.begin();
        let writes = self.rng.uniform(1, 3);
        let mut keys = Vec::new();
        for _ in 0..writes {
            let key = self.rng.uniform(0, KEYS - 1).to_be_bytes();
            if keys.contains(&key) {
                continue;
            }
            keys.push(key);
            let exists = self.db.peek(TABLE, &key).is_some();
            let len = self.rng.uniform(16, 320) as usize;
            let row = vec![self.rng.uniform(0, 255) as u8; len];
            if exists && self.rng.chance(0.2) {
                self.db.delete(&mut ctx, TABLE, key.to_vec());
            } else if exists {
                self.db.update(&mut ctx, TABLE, key.to_vec(), row);
            } else {
                self.db.insert(&mut ctx, TABLE, key.to_vec(), row);
            }
        }
        let bytes = encode_txn(&self.db.commit(ctx).expect("writes to distinct keys commit"));
        let (tag, t) = self.log.append_submit(self.now, &bytes);
        assert_eq!(tag.0 as usize, self.ends.len());
        self.written.extend_from_slice(&bytes);
        self.ends.push(self.written.len() as u64);
        if self.cut.is_none() {
            self.ledger.push((self.written.len() as u64, self.db.fingerprint()));
        }
        self.now = t;
        self.drain();
    }
}

/// What recovery at one cut found.
struct Cut {
    /// The snapshot generation restore chose (0: none survived).
    generation: u64,
    /// Destage pages the replayed suffix spans.
    suffix_pages: u64,
}

/// Cut the power at the run's instant, reboot, recover, and check the three
/// laws against `ledger`, the uncut run's.
fn crash_and_check(mut run: Run, ledger: &[(u64, u64)]) -> Cut {
    let (k, now, dev) = (run.events, run.now, run.dev);
    let cl = run.log.cluster_mut();
    let durable = cl.power_fail(dev, now).durable_upto[0];
    cl.reboot_device(dev);
    assert!(durable >= run.acked, "cut {k}: durable {durable} < acknowledged {}", run.acked);
    let destaged = match durable {
        0 => Vec::new(),
        n => cl.device_mut(dev).read_destaged(now, 0, 0, n as usize).expect("durable log").1,
    };
    assert!(destaged[..] == run.written[..durable as usize], "cut {k}: destaged log differs");

    let (t, generation, from, mut db) = match run.ck.restore(cl, now) {
        Some((t, meta, db)) => (t, meta.generation, meta.log_offset, db),
        None => (now, 0, 0, empty_db()),
    };
    recover(&mut db, &durable_log_stream(cl, t, dev, from));
    let last = ledger.partition_point(|&(end, _)| end <= durable) - 1;
    assert_eq!(
        db.fingerprint(),
        ledger[last].1,
        "cut {k} at {now}: recovery from generation {generation} must land on transaction \
         {last} (durable {durable})"
    );
    if run.torn {
        assert_eq!(generation, 1, "cut {k}: restore falls back past the torn generation");
    }
    let device = cl.device(dev);
    let mut suffix_pages = 0;
    let mut off = from;
    while off < durable {
        off = device.destaged_segment(off).expect("the suffix is on the destage ring").log_to;
        suffix_pages += 1;
    }
    Cut { generation, suffix_pages }
}

#[test]
fn every_event_cut_recovers_the_committed_prefix() {
    let mut uncut = Run::new(None);
    assert!(uncut.script().is_continue());
    let n = uncut.events;
    assert!(n >= 400, "the scenario has {n} event cuts, want at least 400");
    assert_eq!(uncut.acked, uncut.written.len() as u64, "the uncut run acknowledges everything");
    let ledger = std::mem::take(&mut uncut.ledger);

    let mut torn_cuts = 0;
    let mut last = None;
    for k in 1..=n {
        let mut run = Run::new(Some(k));
        assert!(run.script().is_break(), "cut {k} of {n} is reached");
        torn_cuts += run.torn as usize;
        last = Some(crash_and_check(run, &ledger));
    }
    let last = last.expect("at least one cut");
    assert!(torn_cuts > 0, "the script crosses the torn generation");
    assert_eq!(last.generation, 1);
    assert!(
        last.suffix_pages >= 2,
        "the durable suffix after the checkpoint spans {} destage pages, want at least 2",
        last.suffix_pages
    );
}
