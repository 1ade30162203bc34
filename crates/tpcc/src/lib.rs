//! # tpcc — the TPC-C workload over memdb
//!
//! The transactional workload the paper drives its evaluation with ("we run
//! the TPC-C workload with 16 warehouses", §6): schema + loader, the spec's
//! NURand skew and name generators, and the five transaction profiles in
//! the standard 45/43/4/4/4 mix.
//!
//! Scale note: [`TpccConfig::bench`], the figure harnesses' scale, keeps the
//! paper's 16 warehouses but cuts districts, customers, items and initial
//! orders well below the spec's — NURand preserves the access skew, and the
//! log path (the system under test) sees the same record sizes and arrival
//! pattern.

#![warn(missing_docs)]

pub mod codec;
pub mod gen;
pub mod schema;
pub mod txns;

pub use codec::{RowReader, RowWriter};
pub use gen::{last_name, nurand, NurandC};
pub use schema::{key, load, Tables, TpccConfig, TABLE_NAMES};
pub use txns::{MixStats, TpccWorkload, TxnKind};

use memdb::Database;
use simkit::DetRng;

/// Build a loaded TPC-C database + workload in one call.
pub fn setup(cfg: TpccConfig, seed: u64) -> (Database, TpccWorkload, DetRng) {
    let mut db = Database::new();
    let mut rng = DetRng::new(seed);
    let c = NurandC::draw(&mut rng);
    let tables = load(&mut db, &cfg, &mut rng, &c);
    (db, TpccWorkload::new(tables, cfg, c), rng)
}

#[cfg(test)]
mod crate_tests {
    use super::*;
    use memdb::{runner, DriverConfig, NoLog, WalConfig, WalManager};
    use simkit::SimDuration;

    /// End-to-end: the TPC-C mix runs under the group-commit runner.
    #[test]
    fn tpcc_under_the_runner() {
        let (mut db, mut workload, _rng) = setup(TpccConfig::small(), 99);
        let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
        let cfg = DriverConfig {
            workers: 4,
            measure: SimDuration::from_millis(30),
            ..DriverConfig::default()
        };
        let report = runner::run(&mut db, &mut wal, &mut workload, &cfg).run;
        assert!(report.committed > 500, "committed {}", report.committed);
        // NewOrder's application rollbacks only.
        assert!(
            (report.aborted as f64) < (report.committed as f64) * 0.05,
            "aborted {} of {}",
            report.aborted,
            report.committed
        );
        assert!(report.log_bytes > 0);
    }
}
