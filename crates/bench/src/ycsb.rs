//! YCSB-style key-value workload over `memdb`.
//!
//! The standard A–F operation mixes over a single `usertable`, with a
//! zipfian/uniform/latest key chooser and a read-ratio knob (any custom
//! mix through [`YcsbConfig::mix`] / `DriverConfig::mix`), over values of
//! YCSB's 100-byte field. Where TPC-C fills 16 KiB commit groups with
//! multi-row transactions, YCSB commits one small random update at a
//! time — the small-append regime of the log path.
//!
//! Operation kinds (the [`crate::driver::Workload`] axis): `read`,
//! `update`, `insert`, `scan`, `rmw`.

use crate::driver::Workload;
use memdb::{Database, Key, Row, TableId, TxnOutcome};
use simkit::{DetRng, Zipfian};

/// The six standard YCSB workload letters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    /// 50% read / 50% update — update heavy.
    A,
    /// 95% read / 5% update — read mostly.
    B,
    /// 100% read.
    C,
    /// 95% read / 5% insert, reads skewed to the latest keys.
    D,
    /// 95% scan / 5% insert — short ranges.
    E,
    /// 50% read / 50% read-modify-write.
    F,
}

impl YcsbMix {
    /// All six letters, in order.
    pub const ALL: [YcsbMix; 6] =
        [YcsbMix::A, YcsbMix::B, YcsbMix::C, YcsbMix::D, YcsbMix::E, YcsbMix::F];

    /// The letter as a label.
    pub fn label(self) -> &'static str {
        match self {
            YcsbMix::A => "A",
            YcsbMix::B => "B",
            YcsbMix::C => "C",
            YcsbMix::D => "D",
            YcsbMix::E => "E",
            YcsbMix::F => "F",
        }
    }

    /// Weights over `[read, update, insert, scan, rmw]`.
    pub fn weights(self) -> &'static [u32] {
        match self {
            YcsbMix::A => &[50, 50, 0, 0, 0],
            YcsbMix::B => &[95, 5, 0, 0, 0],
            YcsbMix::C => &[100, 0, 0, 0, 0],
            YcsbMix::D => &[95, 0, 5, 0, 0],
            YcsbMix::E => &[0, 0, 5, 95, 0],
            YcsbMix::F => &[50, 0, 0, 0, 50],
        }
    }

    /// True for the mixes that read the most recently inserted keys
    /// (YCSB's *latest* request distribution).
    fn latest_distribution(self) -> bool {
        matches!(self, YcsbMix::D)
    }
}

/// Value payload bytes per row: YCSB's default field length (its core
/// workload writes 100-byte fields). At least 8: a value carries an 8-byte
/// stamp.
const VALUE_SIZE: usize = 100;
/// Maximum rows returned by one scan (YCSB-E); the actual length is drawn
/// uniformly in `[1, MAX_SCAN_LEN]`, YCSB's default `maxscanlength`.
const MAX_SCAN_LEN: u64 = 100;

/// YCSB knobs.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Rows loaded before the run.
    pub records: u64,
    /// Zipfian skew `theta` in `[0, 1)`; `0.0` selects the uniform
    /// chooser. YCSB's default is `0.99`.
    pub theta: f64,
    /// Which standard mix to run (the default mix; override per run via
    /// `DriverConfig::mix` for a custom read ratio).
    pub mix: YcsbMix,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig { records: 8192, theta: 0.8, mix: YcsbMix::A }
    }
}

/// Per-kind execution counters (the `db.ycsb.*` metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct YcsbStats {
    /// Point reads.
    pub read: u64,
    /// Whole-value updates.
    pub update: u64,
    /// New-key inserts.
    pub insert: u64,
    /// Range scans.
    pub scan: u64,
    /// Read-modify-writes.
    pub rmw: u64,
}

/// How operation keys are chosen.
#[derive(Debug, Clone)]
enum Chooser {
    /// Every loaded key equally likely.
    Uniform,
    /// Zipfian over ranks, scrambled through the keyspace.
    Zipfian(Zipfian),
    /// Zipfian over recency: rank 0 is the newest key.
    Latest(Zipfian),
}

/// A loaded YCSB workload: table handle + key chooser + mix stats.
#[derive(Debug, Clone)]
pub struct YcsbWorkload {
    table: TableId,
    config: YcsbConfig,
    /// Keys `[0, key_count)` exist; inserts extend the range.
    key_count: u64,
    chooser: Chooser,
    stats: YcsbStats,
    /// Reusable value scratch: payloads are staged here and frozen into
    /// one refcounted image per write, so steady state re-allocates
    /// nothing on the operation path.
    val_buf: Vec<u8>,
}

/// 8-byte big-endian key — order-preserving, so scans walk key order.
/// Built inline on the stack (no heap).
fn encode_key(k: u64) -> Key {
    let mut out = Key::new();
    out.push_u64(k);
    out
}

/// Fill `buf` with a fresh value payload. Deterministic per RNG stream;
/// the first bytes vary so updates actually change row contents.
fn fill_value(buf: &mut Vec<u8>, size: usize, rng: &mut DetRng) {
    buf.clear();
    buf.resize(size, 0x59u8);
    let stamp = rng.next_u64().to_be_bytes();
    let n = stamp.len().min(buf.len());
    buf[..n].copy_from_slice(&stamp[..n]);
}

/// Spread zipfian ranks across the keyspace (YCSB's *scrambled* zipfian):
/// the hot ranks stay hot, but are not clustered at the low keys.
fn scramble(rank: u64, universe: u64) -> u64 {
    let mut z = rank.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % universe
}

impl YcsbWorkload {
    /// The per-kind counters so far.
    pub fn stats(&self) -> YcsbStats {
        self.stats
    }

    /// Rows currently addressable (loaded + inserted).
    pub fn key_count(&self) -> u64 {
        self.key_count
    }

    /// Evaluations of the zipfian chooser's closed form so far
    /// ([`Zipfian::formula_evals`]); 0 for the uniform chooser.
    pub fn zipfian_formula_evals(&self) -> u64 {
        match &self.chooser {
            Chooser::Uniform => 0,
            Chooser::Zipfian(z) | Chooser::Latest(z) => z.formula_evals(),
        }
    }

    /// Draw the target key for a read/update/scan/rmw.
    fn choose_key(&mut self, rng: &mut DetRng) -> u64 {
        match &self.chooser {
            Chooser::Uniform => rng.uniform(0, self.key_count - 1),
            // A scrambled rank is below the loaded row count, and inserts
            // only grow `key_count`.
            Chooser::Zipfian(z) => scramble(z.next(rng), z.universe()),
            Chooser::Latest(z) => {
                // Rank 0 → the newest key; clamp ranks past the loaded
                // range onto the oldest key.
                let rank = z.next(rng).min(self.key_count - 1);
                self.key_count - 1 - rank
            }
        }
    }
}

impl Workload for YcsbWorkload {
    fn kinds(&self) -> &'static [&'static str] {
        &["read", "update", "insert", "scan", "rmw"]
    }

    fn default_mix(&self) -> &'static [u32] {
        self.config.mix.weights()
    }

    fn execute(
        &mut self,
        db: &mut Database,
        rng: &mut DetRng,
        kind: usize,
        _now_ns: u64,
    ) -> TxnOutcome {
        let t = self.table;
        match kind {
            // read: one point lookup.
            0 => {
                self.stats.read += 1;
                let key = encode_key(self.choose_key(rng));
                let mut ctx = db.begin();
                db.get(&mut ctx, t, &key);
                db.commit(ctx)
            }
            // update: overwrite the whole value.
            1 => {
                self.stats.update += 1;
                let key = encode_key(self.choose_key(rng));
                fill_value(&mut self.val_buf, VALUE_SIZE, rng);
                let mut ctx = db.begin();
                db.update(&mut ctx, t, key, Row::copy_from_slice(&self.val_buf));
                db.commit(ctx)
            }
            // insert: append a brand-new key.
            2 => {
                self.stats.insert += 1;
                let k = self.key_count;
                fill_value(&mut self.val_buf, VALUE_SIZE, rng);
                let mut ctx = db.begin();
                db.insert(&mut ctx, t, encode_key(k), Row::copy_from_slice(&self.val_buf));
                let out = db.commit(ctx);
                if out.is_ok() {
                    self.key_count += 1;
                }
                out
            }
            // scan: a short key-ordered range, visited without cloning.
            3 => {
                self.stats.scan += 1;
                let len = rng.uniform(1, MAX_SCAN_LEN) as usize;
                let from = self.choose_key(rng);
                let ctx = db.begin();
                db.scan_visit(t, &encode_key(from), &encode_key(u64::MAX), len, |_k, _v| {});
                db.commit(ctx)
            }
            // rmw: read the row, flip a byte, write it back.
            4 => {
                self.stats.rmw += 1;
                let key = encode_key(self.choose_key(rng));
                let mut ctx = db.begin();
                match db.get(&mut ctx, t, &key) {
                    Some(row) => {
                        self.val_buf.clear();
                        self.val_buf.extend_from_slice(row);
                    }
                    None => fill_value(&mut self.val_buf, VALUE_SIZE, rng),
                }
                self.val_buf[0] = self.val_buf[0].wrapping_add(1);
                db.update(&mut ctx, t, key, Row::copy_from_slice(&self.val_buf));
                db.commit(ctx)
            }
            _ => unreachable!("ycsb kind {kind} out of range"),
        }
    }
}

impl simkit::Instrument for YcsbWorkload {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        let mut db = out.scope("db");
        let mut y = db.scope("ycsb");
        y.counter("read", self.stats.read);
        y.counter("update", self.stats.update);
        y.counter("insert", self.stats.insert);
        y.counter("scan", self.stats.scan);
        y.counter("rmw", self.stats.rmw);
        y.counter("keys", self.key_count);
    }
}

/// Load `usertable` with `cfg.records` rows and return the database,
/// the workload, and the loader RNG (mirrors `tpcc::setup`).
pub fn setup(cfg: YcsbConfig, seed: u64) -> (Database, YcsbWorkload, DetRng) {
    assert!(cfg.records >= 1, "ycsb needs at least one loaded row");
    let mut rng = DetRng::new(seed);
    let mut db = Database::new();
    let table = db.create_table("usertable");
    for k in 0..cfg.records {
        let mut v = vec![0x59u8; VALUE_SIZE];
        let stamp = rng.next_u64().to_be_bytes();
        v[..8].copy_from_slice(&stamp);
        db.install_row(table, encode_key(k), v);
    }
    let chooser = if cfg.mix.latest_distribution() {
        Chooser::Latest(Zipfian::new(cfg.records, cfg.theta.max(0.01)))
    } else if cfg.theta == 0.0 {
        Chooser::Uniform
    } else {
        Chooser::Zipfian(Zipfian::new(cfg.records, cfg.theta))
    };
    let key_count = cfg.records;
    let workload = YcsbWorkload {
        table,
        config: cfg,
        key_count,
        chooser,
        stats: YcsbStats::default(),
        val_buf: Vec::new(),
    };
    (db, workload, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{self, DriverConfig};
    use memdb::{PmConfig, PmLog, WalConfig, WalManager};
    use simkit::SimDuration;

    fn run_mix(mix: YcsbMix, seed: u64) -> driver::DriverReport {
        let (mut db, mut wl, _rng) = setup(YcsbConfig { mix, ..YcsbConfig::default() }, seed);
        let mut wal = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
        let cfg = DriverConfig {
            workers: 2,
            measure: SimDuration::from_millis(20),
            seed,
            ..DriverConfig::default()
        };
        driver::run(&mut db, &mut wal, &mut wl, &cfg)
    }

    #[test]
    fn ycsb_runs_every_mix_and_is_deterministic() {
        for mix in YcsbMix::ALL {
            let a = run_mix(mix, 0x5EED);
            let b = run_mix(mix, 0x5EED);
            assert!(a.run.committed > 50, "{}: only {} commits", mix.label(), a.run.committed);
            assert_eq!(a.run.committed, b.run.committed, "{}", mix.label());
            assert_eq!(a.run.latency_us.samples(), b.run.latency_us.samples(), "{}", mix.label());
        }
    }

    #[test]
    fn mixes_exercise_their_kinds() {
        let a = run_mix(YcsbMix::A, 1);
        assert!(a.per_kind[0].committed > 0, "A runs reads");
        assert!(a.per_kind[1].committed > 0, "A runs updates");
        assert_eq!(a.per_kind[3].committed, 0, "A never scans");
        let e = run_mix(YcsbMix::E, 1);
        assert!(e.per_kind[3].committed > 0, "E runs scans");
        assert!(e.per_kind[2].committed > 0, "E runs inserts");
        // Inserts made the keyspace grow.
        let c = run_mix(YcsbMix::C, 1);
        assert_eq!(c.per_kind[0].committed, c.run.committed, "C is read-only");
    }

    #[test]
    fn zipfian_chooser_concentrates_traffic() {
        let hot_mass = |theta: f64| {
            let cfg = YcsbConfig { theta, records: 1000, ..YcsbConfig::default() };
            let (_db, mut wl, mut rng) = setup(cfg, 7);
            let mut counts = vec![0u64; 1000];
            for _ in 0..20_000 {
                counts[wl.choose_key(&mut rng) as usize] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts[..10].iter().sum::<u64>() as f64 / 20_000.0
        };
        let uniform = hot_mass(0.0);
        let skewed = hot_mass(0.99);
        assert!(uniform < 0.05, "uniform top-10 mass {uniform}");
        assert!(skewed > 3.0 * uniform, "zipfian mass {skewed} vs uniform {uniform}");
    }
}
