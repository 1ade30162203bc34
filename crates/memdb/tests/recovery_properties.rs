//! Property tests for the log lifecycle (docs/ROBUSTNESS.md, "Log
//! lifecycle"): seeded random workloads against random snapshot, tear, and
//! corruption points. The invariants:
//!
//! 1. **Committed-prefix exactness.** Recovery from any durable prefix
//!    reproduces exactly the transactions whose commit marker is durable —
//!    never a partial transaction, never an uncommitted orphan.
//! 2. **Snapshot + suffix equality.** Restoring a snapshot and replaying
//!    the log suffix after its offset equals the flat total-history pass
//!    for any snapshot boundary.
//! 3. **Per-record checksums.** Flipping any byte of the log stops
//!    recovery at the record it lands in: the state is the committed
//!    prefix before that record, never anything after it.
//!
//! Every case replays bit-for-bit from its seed; tear and corruption
//! draws come from the `site::LOG_TAIL` fault stream so arming other
//! sites never perturbs these schedules.

use memdb::{keys, recover, Database, LogOp, LogRecord};
use simkit::faults::{site, FaultPlan};
use simkit::DetRng;

const SEEDS: [u64; 8] = [0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7];

/// A seeded random history: the primary's final state, the log stream,
/// and per-transaction oracles.
struct History {
    primary: Database,
    stream: Vec<u8>,
    /// Stream offset one past each committed transaction's commit marker.
    boundaries: Vec<u64>,
    /// Primary fingerprint after each committed transaction.
    fingerprints: Vec<u64>,
    /// Fingerprint of the empty (pre-history) database.
    empty_fp: u64,
}

impl History {
    /// The fingerprint recovery must produce when exactly the first
    /// `boundaries[i] <= durable` transactions survive.
    fn expected_at(&self, durable: u64) -> u64 {
        self.boundaries
            .iter()
            .rposition(|&b| b <= durable)
            .map_or(self.empty_fp, |i| self.fingerprints[i])
    }

    fn fresh(&self) -> Database {
        let mut db = Database::new();
        db.create_table("t");
        db
    }
}

/// Build a random committed history with uncommitted orphan records
/// sprinkled through the stream (transactions whose commit marker never
/// made it — they must never surface after recovery).
fn random_history(seed: u64) -> History {
    let mut rng = DetRng::new(seed);
    let txns = rng.uniform(25, 60) as usize;

    let mut primary = Database::new();
    let tab = primary.create_table("t");
    let empty_fp = primary.fingerprint();
    let mut stream = Vec::new();
    let mut boundaries = Vec::new();
    let mut fingerprints = Vec::new();
    let mut live: Vec<u32> = Vec::new();
    let mut next_key = 0u32;

    for i in 0..txns {
        let mut ctx = primary.begin();
        for _ in 0..rng.uniform(1, 3) {
            let delete = !live.is_empty() && rng.chance(0.2);
            if delete {
                let idx = rng.uniform(0, live.len() as u64 - 1) as usize;
                let k = live.swap_remove(idx);
                primary.delete(&mut ctx, tab, keys::composite(&[k]));
            } else {
                let overwrite = !live.is_empty() && rng.chance(0.3);
                let val = vec![rng.next_u64() as u8; rng.uniform(1, 48) as usize];
                if overwrite {
                    let k = *rng.pick(&live);
                    primary.update(&mut ctx, tab, keys::composite(&[k]), val);
                } else {
                    next_key += 1;
                    live.push(next_key);
                    primary.insert(&mut ctx, tab, keys::composite(&[next_key]), val);
                }
            }
        }
        for r in primary.commit(ctx).expect("single-threaded commit") {
            r.encode_into(&mut stream);
        }
        boundaries.push(stream.len() as u64);
        fingerprints.push(primary.fingerprint());

        // Occasionally interleave an orphan: records without a commit
        // marker, as a crashed writer would leave behind.
        if rng.chance(0.15) {
            let orphan = LogRecord {
                txn_id: 1_000_000 + i as u64,
                op: LogOp::Insert,
                table: tab,
                key: keys::composite(&[u32::MAX - i as u32]),
                value: vec![0xEE; rng.uniform(1, 32) as usize].into(),
            };
            orphan.encode_into(&mut stream);
        }
    }

    History { primary, stream, boundaries, fingerprints, empty_fp }
}

/// Property 2: for any snapshot boundary, restoring the prefix and then
/// replaying the suffix equals the primary — and the replay cost is
/// exactly the post-snapshot byte range, not total history.
#[test]
fn snapshot_plus_suffix_replay_matches_flat_recovery() {
    for seed in SEEDS {
        let h = random_history(seed);
        let mut rng = DetRng::new(seed ^ 0x5EED);
        for _ in 0..4 {
            let snap = h.boundaries[rng.uniform(0, h.boundaries.len() as u64 - 1) as usize];
            let mut db = h.fresh();
            recover(&mut db, &h.stream[..snap as usize]);
            let report = recover(&mut db, &h.stream[snap as usize..]);
            assert_eq!(db.fingerprint(), h.primary.fingerprint(), "seed {seed} snap {snap}");
            assert_eq!(report.bytes_consumed, h.stream.len() - snap as usize);
            assert_eq!(report.torn_bytes, 0);
        }
    }
}

/// Property 1: a tear at any byte — record boundary, mid-record, or
/// mid-commit-marker — recovers exactly the transactions whose commit
/// marker is durable, checked against an independent oracle (the
/// fingerprint ledger built while the history ran).
#[test]
fn torn_tail_recovers_exactly_the_committed_prefix() {
    for seed in SEEDS {
        let h = random_history(seed);
        let plan = FaultPlan { seed, ..FaultPlan::disabled() };
        let mut rng = plan.rng_for(site::LOG_TAIL);
        for _ in 0..6 {
            let tear = rng.uniform(0, h.stream.len() as u64);
            let mut db = h.fresh();
            recover(&mut db, &h.stream[..tear as usize]);
            assert_eq!(db.fingerprint(), h.expected_at(tear), "seed {seed} tear {tear}");
        }
    }
}

/// Property 3: flipping any byte of the log leaves recovery on exactly
/// the committed prefix before the record it lands in — never a state no
/// committed history produced, and never the corrupted suffix.
#[test]
fn a_corrupted_record_never_resurrects_uncommitted_state() {
    for seed in SEEDS {
        let h = random_history(seed);
        let plan = FaultPlan { seed, ..FaultPlan::disabled() };
        let mut rng = plan.rng_for(site::LOG_TAIL);
        for _ in 0..8 {
            let mut stream = h.stream.clone();
            let at = rng.uniform(0, stream.len() as u64 - 1);
            stream[at as usize] ^= 0x5A;
            let mut db = h.fresh();
            let report = recover(&mut db, &stream);
            assert!(report.bytes_consumed as u64 <= at, "seed {seed}: decoded past byte {at}");
            // No commit marker ends inside the corrupted record, so the
            // prefix before it is the prefix before the flipped byte.
            assert_eq!(db.fingerprint(), h.expected_at(at), "seed {seed} flip at {at}");
        }
    }
}

/// Release-mode smoke for `scripts/check.sh`: three seeds of the torn-tail
/// property, small and fast.
#[test]
fn smoke_torn_tail() {
    for seed in [0xB1, 0xB2, 0xB3] {
        let h = random_history(seed);
        let plan = FaultPlan { seed, ..FaultPlan::disabled() };
        let mut rng = plan.rng_for(site::LOG_TAIL);
        let tear = rng.uniform(0, h.stream.len() as u64);
        let mut db = h.fresh();
        recover(&mut db, &h.stream[..tear as usize]);
        assert_eq!(db.fingerprint(), h.expected_at(tear), "seed {seed} tear {tear}");
    }
}
