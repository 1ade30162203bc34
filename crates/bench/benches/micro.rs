//! Microbenchmarks over the hot paths of the simulation stack: the CMB
//! ingest path, the fast write path (fresh, per CMB backing, and with a
//! wrapped destage ring), the replicated cluster's advance loop and fsync
//! cycle, an NTB mirror burst, the flash channel scheduler (busy and
//! idle), FTL allocation, WAL record encode/decode, TPC-C transactions, and
//! the sim kernel itself. These guard the simulator's own performance (a slow
//! simulator caps experiment scale).
//!
//! The harness is hand-rolled (`harness = false`; no crates.io access for
//! criterion): each case is warmed up, then timed over enough iterations to
//! fill ~200 ms of wall clock, reporting ns/iter and derived throughput.
//! Run with `cargo bench -p xssd-bench`. Numbers are indicative, not
//! statistically rigorous.

use simkit::{Bandwidth, SerialResource, SimDuration, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `routine` on fresh state from `setup` each iteration; print ns/iter
/// and, when `bytes_per_iter` is given, MB/s.
fn bench<S, R: std::fmt::Debug>(
    name: &str,
    bytes_per_iter: Option<u64>,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> R,
) {
    // Warm-up and per-iteration cost estimate.
    let mut probe_iters = 1u64;
    let per_iter = loop {
        let states: Vec<S> = (0..probe_iters).map(|_| setup()).collect();
        let start = Instant::now();
        for s in states {
            black_box(routine(s));
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(10) {
            break elapsed / probe_iters as u32;
        }
        probe_iters *= 4;
    };
    let iters = (Duration::from_millis(200).as_nanos() / per_iter.as_nanos().max(1))
        .clamp(1, 1_000_000) as u64;

    // Measured run: exclude setup cost by preparing all states up front.
    let states: Vec<S> = (0..iters).map(|_| setup()).collect();
    let start = Instant::now();
    for s in states {
        black_box(routine(s));
    }
    let elapsed = start.elapsed();

    let ns = elapsed.as_nanos() as f64 / iters as f64;
    let mut line = format!("{name:<40} {ns:>12.0} ns/iter  ({iters} iters)");
    if let Some(bytes) = bytes_per_iter {
        let mbps = bytes as f64 / (ns / 1e9) / 1e6;
        line.push_str(&format!("  {mbps:>9.1} MB/s"));
    }
    println!("{line}");
}

fn bench_cmb_ingest() {
    use xssd_core::{CmbConfig, CmbModule};
    bench(
        "cmb/ingest_4k_chunk",
        Some(16 * 4096),
        || {
            (
                CmbModule::new(CmbConfig {
                    size: 1 << 20,
                    intake_queue_bytes: 1 << 20,
                    ..CmbConfig::sram()
                }),
                SerialResource::new(),
                Bandwidth::gbytes_per_sec(4.0),
            )
        },
        |(mut cmb, mut port, bw)| {
            for i in 0..16u64 {
                cmb.ingest(SimTime::ZERO, i * 4096, &[0u8; 4096], |t, bytes| {
                    port.acquire(t, bw.transfer_time(bytes))
                })
                .unwrap();
            }
            cmb.credit_at(SimTime::from_millis(1))
        },
    );
}

fn bench_fast_write_path() {
    use xssd_core::{Cluster, VillarsConfig};
    bench(
        "fast_side/x_pwrite_fsync_16k",
        Some(16 << 10),
        || {
            let mut cl = Cluster::new();
            let dev = cl.add_device(VillarsConfig::villars_sram());
            (cl, xssd_core::XLogFile::open(dev))
        },
        |(mut cl, mut f)| {
            let t = f.x_pwrite(&mut cl, SimTime::ZERO, &[0u8; 16 << 10]).unwrap();
            f.x_fsync(&mut cl, t).unwrap()
        },
    );
}

/// One 16 KiB `VillarsDevice::fast_write` (256 write-combined TLPs) plus the
/// advance that destages its page, in steady state, on both backings: each
/// device takes the TLPs as one run (`CmbModule::ingest_run`); the DRAM-backed
/// one drains slower than they arrive, so its drains queue back to back.
fn bench_fast_write_regimes() {
    use pcie::MmioMode;
    use xssd_core::{VillarsConfig, VillarsDevice};
    let page = [0x5Au8; 16 << 10];
    for (name, config) in [
        ("fast_side/fast_write_16k_sram", VillarsConfig::villars_sram()),
        ("fast_side/fast_write_16k_dram", VillarsConfig::villars_dram()),
    ] {
        let mut dev = VillarsDevice::new(config);
        let (mut t, mut offset) = (SimTime::ZERO, 0u64);
        bench(
            name,
            Some(16 << 10),
            || (),
            |()| {
                let fw = dev.fast_write(t, offset, &page, MmioMode::WriteCombining).unwrap();
                offset += page.len() as u64;
                // Long enough for the DRAM backlog to drain and the page to
                // leave the ring.
                t = fw.arrived_at + SimDuration::from_micros(50);
                dev.advance(t);
                t
            },
        );
    }
}

/// One 16 KiB fast write + fsync — one destaged flash page — on a device
/// whose 4096-LBA destage ring has already wrapped once, so every page
/// reuses a slot and the readable window is full: the steady state of any
/// run longer than 64 MiB of log. (`fast_side/x_pwrite_fsync_16k` above
/// starts from a fresh device each iteration and never wraps.)
fn bench_destage_wrapped_ring() {
    use xssd_core::{Cluster, VillarsConfig, XLogFile};
    let mut cl = Cluster::new();
    let dev = cl.add_device(VillarsConfig::villars_sram());
    let mut f = XLogFile::open(dev);
    let ring = cl.device(dev).config().destage.ring_lbas;
    let page = [0x5Au8; 16 << 10];
    let mut t = SimTime::ZERO;
    let mut cycle = |cl: &mut Cluster, t: &mut SimTime| {
        let issued = f.x_pwrite(cl, *t, &page).unwrap();
        *t = f.x_fsync(cl, issued).unwrap();
    };
    while cl.device(dev).destage_stats().full_pages < ring + 64 {
        cycle(&mut cl, &mut t);
    }
    bench(
        "core/destage_page_wrapped_ring",
        Some(16 << 10),
        || (),
        |()| {
            cycle(&mut cl, &mut t);
            t
        },
    );
}

/// A primary with two eager secondaries over NTB, replication configured.
fn replicated_cluster() -> (xssd_core::Cluster, SimTime) {
    use xssd_core::{Cluster, VillarsConfig};
    let mut cl = Cluster::new();
    for _ in 0..3 {
        cl.add_device(VillarsConfig::villars_sram());
    }
    let t = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
    (cl, t)
}

/// `Cluster::advance` over 10 µs of nothing: two secondaries report their
/// unchanged counters every 0.8 µs (25 updates sent, carried and applied),
/// three devices poll their idle flash schedulers.
fn bench_cluster_advance_idle() {
    let (mut cl, mut t) = replicated_cluster();
    bench(
        "core/cluster_advance_10us_two_idle_secondaries",
        None,
        || (),
        |()| {
            t += SimDuration::from_micros(10);
            cl.advance(t);
            t
        },
    );
}

/// One 4 KiB `x_pwrite` + `x_fsync` acknowledged by two eager secondaries:
/// the `log_replicated` cycle at one size.
fn bench_replicated_fsync() {
    let (mut cl, mut t) = replicated_cluster();
    let mut f = xssd_core::XLogFile::open(0);
    let payload = [0xC3u8; 4 << 10];
    bench(
        "core/replicated_pwrite_fsync_4k",
        Some(4 << 10),
        || (),
        |()| {
            let issued = f.x_pwrite(&mut cl, t, &payload).unwrap();
            t = f.x_fsync(&mut cl, issued).unwrap();
            t
        },
    );
}

/// The primary's mirror of one 16 KiB write to one secondary: 256 64-byte
/// TLPs forwarded over the NTB wire as one stream on the host link's period.
fn bench_ntb_mirror_burst() {
    use pcie::{HostId, NtbConfig, NtbPort, TranslationWindow};
    let mut port = NtbPort::new(NtbConfig::default(), HostId(1));
    port.add_window(TranslationWindow {
        local_base: 0x8000_0000,
        len: 1 << 32,
        remote_host: HostId(1),
        remote_base: 0,
    });
    let mut t = SimTime::ZERO;
    bench(
        "pcie/ntb_mirror_burst_16k",
        Some(16 << 10),
        || (),
        |()| {
            let period = SimDuration::from_nanos(44);
            let (first, spacing) = port.forward_stream(t, 0x8000_0000, 64, period, 256).unwrap();
            t = first.start + SimDuration::from_micros(17);
            first.end + spacing * 255
        },
    );
}

fn bench_flash_scheduler() {
    use flash::{
        ChannelScheduler, FlashArray, FlashGeometry, FlashTiming, OpKind, OpRequest, Ppa, Priority,
        ReliabilityConfig, SchedulingMode,
    };
    bench(
        "flash/schedule_512_programs",
        None,
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
    );
}

/// What every device step asks an idle scheduler: anything to start by
/// now, and when could something start.
fn bench_flash_scheduler_idle() {
    use flash::{
        ChannelScheduler, FlashArray, FlashGeometry, FlashTiming, ReliabilityConfig, SchedulingMode,
    };
    let geometry = FlashGeometry::default();
    assert_eq!(geometry.channels, 8);
    let mut array =
        FlashArray::new(geometry, FlashTiming::default(), ReliabilityConfig::perfect(), 1);
    let mut sched = ChannelScheduler::new(geometry.channels, SchedulingMode::Neutral);
    let mut t = SimTime::ZERO;
    bench(
        "flash/pump_idle_8_channels",
        None,
        || (),
        |()| {
            t += SimDuration::from_micros(1);
            (sched.pump(&mut array, t).len(), sched.next_start_hint(&array))
        },
    );
}

fn bench_ftl() {
    use flash::{FlashArray, FlashGeometry, FlashTiming, ReliabilityConfig};
    use ssd::{AllocStream, Ftl};
    bench(
        "ftl/allocate_4096_pages",
        None,
        || {
            let geometry = FlashGeometry::default();
            let array =
                FlashArray::new(geometry, FlashTiming::default(), ReliabilityConfig::perfect(), 1);
            Ftl::new(geometry, &array, 8)
        },
        |mut ftl| {
            for lpn in 0..4096u64 {
                ftl.allocate(lpn, AllocStream::Host).unwrap();
            }
            ftl.mapped_pages()
        },
    );
}

fn bench_log_codec() {
    use memdb::{decode_stream, LogOp, LogRecord};
    let records: Vec<LogRecord> = (0..64)
        .map(|i| LogRecord {
            txn_id: i,
            op: LogOp::Update,
            table: (i % 8) as u16,
            key: vec![i as u8; 12].into(),
            value: vec![(i * 7) as u8; 160].into(),
        })
        .collect();
    let mut encoded = Vec::new();
    for r in &records {
        r.encode_into(&mut encoded);
    }
    let bytes = encoded.len() as u64;
    bench(
        "wal_codec/encode_64_records",
        Some(bytes),
        || (),
        |()| {
            let mut out = Vec::with_capacity(encoded.len());
            for r in &records {
                r.encode_into(&mut out);
            }
            out.len()
        },
    );
    bench("wal_codec/decode_64_records", Some(bytes), || (), |()| decode_stream(&encoded).0.len());
}

fn bench_tpcc_txn() {
    use tpcc::{setup, TpccConfig};
    let (mut db, mut workload, mut rng) = setup(TpccConfig::small(), 5);
    bench(
        "tpcc/mixed_txn",
        None,
        || (),
        |()| {
            let _ = workload.execute(&mut db, &mut rng, 0);
            db.commits()
        },
    );
}

/// The storage-engine hot path in isolation: commit/validate over a mixed
/// read/write transaction, and the YCSB zipfian point-read path (chooser +
/// borrowed get + commit marker). These are the loops the allocation budget
/// in `crates/bench/tests/alloc_budget.rs` guards.
fn bench_db_hot_path() {
    use memdb::{keys, Database};
    let mut db = Database::new();
    let t = db.create_table("bench");
    for i in 0..1024u32 {
        db.install_row(t, keys::composite(&[i]), vec![(i % 251) as u8; 160]);
    }
    let mut i = 0u32;
    bench(
        "memdb/commit_validate_8r4w",
        None,
        || (),
        |()| {
            let mut ctx = db.begin();
            for j in 0..8u32 {
                let k = keys::composite(&[i.wrapping_mul(13).wrapping_add(j * 97) % 1024]);
                let _ = db.get(&mut ctx, t, &k);
            }
            for j in 0..4u32 {
                let k = keys::composite(&[i.wrapping_mul(29).wrapping_add(j * 53) % 1024]);
                db.update(&mut ctx, t, k, simkit::Bytes::copy_from_slice(&[i as u8; 160]));
            }
            i = i.wrapping_add(1);
            db.commit(ctx).map(|recs| recs.len()).unwrap_or(0)
        },
    );

    // What the tpcc_local profile found under `Workload::execute`: the key
    // compare a B-tree descent makes ~40 times, a point read and a commit
    // on a table too large for the cache (the 1 024-row table above is not).
    // They say where a cost sits; the evidence is benchmark/run.sh.
    let order_line =
        |n: u32| keys::composite(&[1 + n / 30_000, 1 + n / 3000 % 10, n / 15 % 200, n % 15]);
    let pairs: Vec<_> =
        (0..1000u32).map(|n| (order_line(n.wrapping_mul(7919) % 400_000), order_line(n))).collect();
    bench(
        "memdb/key_cmp_inline_16b",
        None,
        || (),
        |()| {
            // 1000 compares per iteration (one is below the timer's reach).
            pairs.iter().filter(|(a, b)| black_box(a) < black_box(b)).count()
        },
    );
    let mut big = Database::new();
    let bt = big.create_table("big");
    for n in 0..400_000u32 {
        big.install_row(bt, order_line(n), vec![(n % 251) as u8; 100]);
    }
    // Installing rows moves the mutation stamp; transactions begun after
    // this point see a quiet database, as the workloads do.
    let mut n = 0u32;
    let mut next = move || {
        n = n.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        order_line(n % 400_000)
    };
    bench(
        "memdb/get_hit_400k_rows",
        None,
        || (),
        |()| {
            let mut ctx = big.begin();
            let len = big.get(&mut ctx, bt, &next()).map(<[u8]>::len);
            big.rollback(ctx);
            len
        },
    );
    bench(
        "memdb/commit_8r4w_400k_rows",
        None,
        || (),
        |()| {
            let mut ctx = big.begin();
            for _ in 0..8 {
                let _ = big.get(&mut ctx, bt, &next());
            }
            for _ in 0..4 {
                big.update(&mut ctx, bt, next(), simkit::Bytes::copy_from_slice(&[7u8; 100]));
            }
            big.commit(ctx).map(|recs| recs.len()).unwrap_or(0)
        },
    );

    use xssd_bench::driver::Workload;
    use xssd_bench::ycsb::{setup as ycsb_setup, YcsbConfig, YcsbMix};
    let cfg = YcsbConfig { mix: YcsbMix::C, theta: 0.99, ..YcsbConfig::default() };
    let (mut ydb, mut ywl, mut yrng) = ycsb_setup(cfg, 9);
    bench(
        "ycsb/zipfian_point_read",
        None,
        || (),
        |()| {
            let _ = ywl.execute(&mut ydb, &mut yrng, 0, 0);
            ydb.commits()
        },
    );
}

fn bench_sim_kernel() {
    bench("simkit/event_queue_1k_cycle", None, simkit::EventQueue::<u64>::new, |mut q| {
        for i in 0..1000u64 {
            q.schedule(SimTime::from_nanos(i * 7919 % 5000), i);
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        n
    });
    // Indexed-cancellation churn: schedule a batch, cancel half of it via
    // the saved handles, drain the rest — the pattern timeout-heavy device
    // models produce.
    bench("simkit/event_queue_1k_cancel_half", None, simkit::EventQueue::<u64>::new, |mut q| {
        let ids: Vec<_> =
            (0..1000u64).map(|i| q.schedule(SimTime::from_nanos(i * 7919 % 5000), i)).collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                q.cancel(*id);
            }
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        n
    });
    // Frontier polling interleaved with schedule/pop — the shape of every
    // `advance_to` loop (`next_time` per event step must be O(1)).
    bench("simkit/event_queue_peek_heavy_cycle", None, simkit::EventQueue::<u64>::new, |mut q| {
        let mut acc = 0u64;
        for i in 0..1000u64 {
            q.schedule(SimTime::from_nanos(i * 6151 % 4000), i);
            if let Some(t) = q.next_time() {
                acc = acc.wrapping_add(t.as_nanos());
            }
            if i % 2 == 1 {
                q.pop();
            }
        }
        while let Some((at, _)) = q.pop() {
            acc = acc.wrapping_add(at.as_nanos());
        }
        acc
    });
    let mut r = SerialResource::new();
    let mut t = SimTime::ZERO;
    bench(
        "simkit/serial_resource_acquire",
        None,
        || (),
        |()| {
            let grant = r.acquire(t, SimDuration::from_nanos(10));
            t = grant.end;
            grant.end
        },
    );
}

/// End-to-end figure kernels (see `xssd_bench::kernels`): whole-stack
/// simulation throughput, the number the wall-clock gate actually cares
/// about.
fn bench_e2e_kernels() {
    use xssd_bench::kernels;
    bench(
        "e2e/fig09_tpcc_villars_sram_w2_10ms",
        None,
        || (),
        |()| kernels::tpcc_villars_sram_cell(2, SimDuration::from_millis(10)).counter("db.commits"),
    );
    bench(
        "e2e/fig11_write_fsync_16k_q4k_x100",
        Some(100 * (16 << 10)),
        || (),
        |()| {
            let (snap, times) = kernels::queue_size_cycles(4 << 10, 16 << 10, 100);
            (snap.counter("bench.payload_bytes"), times.len())
        },
    );
}

fn main() {
    println!("{:<40} {:>12}", "benchmark", "time");
    bench_cmb_ingest();
    bench_fast_write_path();
    bench_fast_write_regimes();
    bench_destage_wrapped_ring();
    bench_cluster_advance_idle();
    bench_replicated_fsync();
    bench_ntb_mirror_burst();
    bench_flash_scheduler();
    bench_flash_scheduler_idle();
    bench_ftl();
    bench_log_codec();
    bench_tpcc_txn();
    bench_db_hot_path();
    bench_sim_kernel();
    bench_e2e_kernels();
}
