//! Layer probes: fixed op counts against one layer's public API — the
//! `crates/bench/benches/micro.rs` cases, persisted as per-layer metrics
//! instead of printed. They split what spans drawn from outside cannot:
//! tpcc vs memdb::storage inside `execute`, the event queue vs the device
//! model inside `advance`.
//!
//! A probe runs in the traced child of the workload where its layer
//! dominates. Each reports the median of [`SAMPLES`] samples of at least
//! [`SAMPLE_TIME`] of routine time; state is rebuilt outside the timed
//! region where a case consumes it.

use crate::stats;
use crate::workloads::Scale;
use simkit::{Bandwidth, SerialResource, SimDuration, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 5;
const SAMPLE_TIME: Duration = Duration::from_millis(100);

/// How long a probe samples.
#[derive(Debug, Clone, Copy)]
struct Budget {
    samples: usize,
    sample_time: Duration,
}

impl Budget {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Budget { samples: SAMPLES, sample_time: SAMPLE_TIME },
            Scale::Quick => Budget { samples: 2, sample_time: SAMPLE_TIME / 50 },
        }
    }
}

/// Median ns per call of `routine` on fresh state from `setup`, over
/// `samples` samples of at least `sample_time` of routine time each.
fn measure<S, R>(
    budget: Budget,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> R,
) -> f64 {
    black_box(routine(setup())); // warm caches and lazy state
    let per_call: Vec<f64> = (0..budget.samples)
        .map(|_| {
            let (mut spent, mut calls) = (Duration::ZERO, 0u64);
            while spent < budget.sample_time {
                let state = setup();
                let start = Instant::now();
                black_box(routine(black_box(state)));
                spent += start.elapsed();
                calls += 1;
            }
            spent.as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&per_call)
}

fn tpcc_mixed_txn(budget: Budget) -> f64 {
    let (mut db, mut workload, mut rng) = tpcc::setup(tpcc::TpccConfig::small(), 5);
    measure(
        budget,
        || (),
        |()| {
            let _ = workload.execute(&mut db, &mut rng, 0);
            db.commits()
        },
    )
}

fn memdb_commit_8r4w(budget: Budget) -> f64 {
    use memdb::{keys, Database};
    let mut db = Database::new();
    let table = db.create_table("bench");
    for i in 0..1024u32 {
        db.install_row(table, keys::composite(&[i]), vec![(i % 251) as u8; 160]);
    }
    let mut i = 0u32;
    measure(
        budget,
        || (),
        |()| {
            let mut ctx = db.begin();
            for j in 0..8u32 {
                let k = keys::composite(&[i.wrapping_mul(13).wrapping_add(j * 97) % 1024]);
                let _ = db.get(&mut ctx, table, &k);
            }
            for j in 0..4u32 {
                let k = keys::composite(&[i.wrapping_mul(29).wrapping_add(j * 53) % 1024]);
                db.update(&mut ctx, table, k, simkit::Bytes::copy_from_slice(&[i as u8; 160]));
            }
            i = i.wrapping_add(1);
            db.commit(ctx).map(|recs| recs.len()).unwrap_or(0)
        },
    )
}

fn wal_records() -> Vec<memdb::LogRecord> {
    (0..64)
        .map(|i| memdb::LogRecord {
            txn_id: i,
            op: memdb::LogOp::Update,
            table: (i % 8) as u16,
            key: vec![i as u8; 12].into(),
            value: vec![(i * 7) as u8; 160].into(),
        })
        .collect()
}

fn wal_encode_64(budget: Budget) -> f64 {
    let records = wal_records();
    let size: usize = records.iter().map(|r| r.encoded_len()).sum();
    measure(
        budget,
        || Vec::with_capacity(size),
        |mut out: Vec<u8>| {
            for r in &records {
                r.encode_into(&mut out);
            }
            out.len()
        },
    )
}

fn wal_decode_64(budget: Budget) -> f64 {
    let mut encoded = Vec::new();
    for r in &wal_records() {
        r.encode_into(&mut encoded);
    }
    measure(budget, || (), |()| memdb::decode_stream(&encoded).0.len())
}

fn ycsb_point_read(budget: Budget) -> f64 {
    use xssd_bench::driver::Workload;
    use xssd_bench::ycsb::{setup, YcsbConfig, YcsbMix};
    let cfg = YcsbConfig { mix: YcsbMix::C, theta: 0.99, ..YcsbConfig::default() };
    let (mut db, mut workload, mut rng) = setup(cfg, 9);
    measure(
        budget,
        || (),
        |()| {
            let _ = workload.execute(&mut db, &mut rng, 0, 0);
            db.commits()
        },
    )
}

fn nvme_write_flush_16k(budget: Budget) -> f64 {
    use memdb::LogBackend;
    let mut log =
        memdb::NvmeLog::new(ssd::ConventionalSsd::new(ssd::SsdConfig::default()), 0, 8192);
    let data = vec![0x5Au8; 16 << 10];
    let mut now = SimTime::ZERO;
    measure(
        budget,
        || (),
        |()| {
            let appended = log.append(now, &data);
            now = log.sync(appended);
            now
        },
    )
}

fn cmb_ingest_64k(budget: Budget) -> f64 {
    use xssd_core::{CmbConfig, CmbModule};
    let chunk = [0u8; 4096];
    measure(
        budget,
        || {
            let config =
                CmbConfig { size: 1 << 20, intake_queue_bytes: 1 << 20, ..CmbConfig::sram() };
            (CmbModule::new(config), SerialResource::new(), Bandwidth::gbytes_per_sec(4.0))
        },
        |(mut cmb, mut port, bw)| {
            for i in 0..16u64 {
                cmb.ingest(SimTime::ZERO, i * 4096, &chunk, |at, bytes| {
                    port.acquire(at, bw.transfer_time(bytes))
                })
                .expect("in-window ingest");
            }
            cmb.credit_at(SimTime::from_millis(1))
        },
    )
}

fn fast_write_fsync_16k(budget: Budget) -> f64 {
    use xssd_core::{Cluster, VillarsConfig, XLogFile};
    let data = [0u8; 16 << 10];
    measure(
        budget,
        || {
            let mut cl = Cluster::new();
            let dev = cl.add_device(VillarsConfig::villars_sram());
            (cl, XLogFile::open(dev))
        },
        |(mut cl, mut file)| {
            let written = file.x_pwrite(&mut cl, SimTime::ZERO, &data).expect("x_pwrite");
            file.x_fsync(&mut cl, written).expect("x_fsync")
        },
    )
}

fn event_queue_1k(budget: Budget) -> f64 {
    measure(budget, simkit::EventQueue::<u64>::new, |mut q| {
        for i in 0..1000u64 {
            q.schedule(SimTime::from_nanos(i * 7919 % 5000), i);
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    })
}

fn event_queue_cancel_half(budget: Budget) -> f64 {
    measure(budget, simkit::EventQueue::<u64>::new, |mut q| {
        let ids: Vec<_> =
            (0..1000u64).map(|i| q.schedule(SimTime::from_nanos(i * 7919 % 5000), i)).collect();
        for id in ids.iter().step_by(2) {
            q.cancel(*id);
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    })
}

/// Acquires per timed call: one acquire is a few ns, below timer resolution.
const ACQUIRES_PER_CALL: u32 = 1000;

fn serial_resource(budget: Budget) -> f64 {
    let mut resource = SerialResource::new();
    let mut now = SimTime::ZERO;
    measure(
        budget,
        || (),
        |()| {
            for _ in 0..ACQUIRES_PER_CALL {
                now = resource.acquire(now, SimDuration::from_nanos(10)).end;
            }
            now
        },
    ) / f64::from(ACQUIRES_PER_CALL)
}

fn sched_pump_512(budget: Budget) -> f64 {
    use flash::{
        ChannelScheduler, FlashArray, FlashGeometry, FlashTiming, OpKind, OpRequest, Ppa, Priority,
        ReliabilityConfig, SchedulingMode,
    };
    measure(
        budget,
        || {
            let geometry = FlashGeometry::default();
            let array =
                FlashArray::new(geometry, FlashTiming::default(), ReliabilityConfig::perfect(), 1);
            let mut sched = ChannelScheduler::new(geometry.channels, SchedulingMode::Neutral);
            let mut id = 0u64;
            for page in 0..8u32 {
                for ch in 0..geometry.channels {
                    for die in 0..geometry.dies_per_channel {
                        sched.submit(OpRequest {
                            id,
                            kind: OpKind::Program(Ppa::new(ch, die, 0, page)),
                            arrival: SimTime::ZERO,
                            class: Priority::Conventional,
                        });
                        id += 1;
                    }
                }
            }
            (array, sched)
        },
        |(mut array, mut sched)| sched.pump(&mut array, SimTime::MAX).len(),
    )
}

fn ftl_alloc_4096(budget: Budget) -> f64 {
    use flash::{FlashArray, FlashGeometry, FlashTiming, ReliabilityConfig};
    use ssd::{AllocStream, Ftl};
    measure(
        budget,
        || {
            let geometry = FlashGeometry::default();
            let array =
                FlashArray::new(geometry, FlashTiming::default(), ReliabilityConfig::perfect(), 1);
            Ftl::new(geometry, &array, 8)
        },
        |mut ftl| {
            for lpn in 0..4096u64 {
                ftl.allocate(lpn, AllocStream::Host).expect("fresh device has room");
            }
            ftl.mapped_pages()
        },
    )
}

type Probe = (&'static str, fn(Budget) -> f64);

/// The probes that run in `workload`'s traced child.
fn probes_of(workload: &str) -> &'static [Probe] {
    match workload {
        "tpcc_local" => &[
            ("tpcc.probe.mixed_txn_ns", tpcc_mixed_txn),
            ("memdb.probe.commit_8r4w_ns", memdb_commit_8r4w),
            ("memdb.probe.wal_encode_64_ns", wal_encode_64),
            ("memdb.probe.wal_decode_64_ns", wal_decode_64),
        ],
        "ycsb_nvme" => &[
            ("bench.probe.ycsb_point_read_ns", ycsb_point_read),
            ("nvme.probe.write_flush_16k_ns", nvme_write_flush_16k),
        ],
        "log_replicated" => &[
            ("core.probe.cmb_ingest_64k_ns", cmb_ingest_64k),
            ("core.probe.fast_write_fsync_16k_ns", fast_write_fsync_16k),
            ("simkit.probe.event_queue_1k_ns", event_queue_1k),
            ("simkit.probe.event_queue_cancel_half_ns", event_queue_cancel_half),
            ("simkit.probe.serial_resource_ns", serial_resource),
        ],
        "destage_mixed" => &[
            ("flash.probe.sched_pump_512_ns", sched_pump_512),
            ("ssd.probe.ftl_alloc_4096_ns", ftl_alloc_4096),
        ],
        _ => &[],
    }
}

/// Run `workload`'s probes.
pub fn run(workload: &str, scale: Scale) -> Vec<(&'static str, f64)> {
    let budget = Budget::at(scale);
    probes_of(workload).iter().map(|(name, probe)| (*name, probe(budget))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{self, Source};
    use crate::workloads::WORKLOADS;

    #[test]
    fn every_catalogued_probe_has_exactly_one_home() {
        let homes: Vec<&str> =
            WORKLOADS.iter().flat_map(|w| probes_of(w.name).iter().map(|(n, _)| *n)).collect();
        let catalogued: Vec<&str> = metrics::PER_LAYER
            .iter()
            .filter(|m| matches!(m.source, Source::Probe))
            .map(|m| m.name)
            .collect();
        assert_eq!(homes, catalogued, "probe homes and catalogue order differ");
    }

    #[test]
    fn measure_reports_time_per_call() {
        let mut calls = 0u64;
        let ns = measure(
            Budget { samples: 3, sample_time: Duration::from_millis(2) },
            || (),
            |()| {
                calls += 1;
                std::thread::sleep(Duration::from_micros(200));
            },
        );
        assert!(calls >= 3);
        assert!((150_000.0..5_000_000.0).contains(&ns), "{ns} ns per call");
    }

    #[test]
    fn quick_probes_return_positive_times() {
        for w in &WORKLOADS {
            for (name, ns) in run(w.name, Scale::Quick) {
                assert!(ns > 0.0 && ns.is_finite(), "{name} = {ns}");
            }
        }
    }
}
