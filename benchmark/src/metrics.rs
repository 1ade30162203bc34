//! The metric catalogue: every end-to-end and per-layer metric by name,
//! with its unit, its clock, which direction is better, and (end-to-end
//! only) the regression bound. `BENCHMARK.json` lists the same names; a
//! test keeps the two in step.
//!
//! Two clocks, named in every metric: `host_*`, `*.host_s`, `*_host_s`,
//! `setup_s`, `peak_rss_mb`, `*.probe.*` and `trace.overhead_pct` are host
//! wall clock or host memory (noisy; medians over repetitions). `sim_*`,
//! `*.sim_*` and everything read from the telemetry registry are simulated
//! time or counts (exact for a fixed seed; they must repeat bit for bit).

use crate::span::{Aggregate, SpanName, Tracer};
use simkit::{MetricValue, Snapshot};
use std::cell::Cell;
use Better::{Higher, Lower};
use Source::{Counter, Derived, DevCounter, DevGauge, Runner, Workload};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Host clock (median over repetitions) or simulated (exact).
    pub host: bool,
}

/// The end-to-end metrics, each defined on every workload and never zero.
///
/// `failed_ops_share` from the issue is not here: it is 0 on every correct
/// run, and the result line already carries `attempted` and `failed`.
///
/// The driver that accepts this benchmark runs ten *different* seeds per
/// workload and wants the inter-quartile spread of the ten values below a
/// third of the bound, so each bound is the issue's figure or three times
/// the widest spread measured that way (README, "Measured spread"),
/// whichever is larger, and `setup_s` has the largest. Simulated metrics
/// are exact for one seed; their bounds only cover how far they move
/// *between* seeds, and `compare` judges them exactly when the seeds agree.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, host: true },
    EndToEnd { name: "host_ops_per_s", unit: "ops/s", better: Higher, bound: 0.25, host: true },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.05, host: true },
    EndToEnd { name: "sim_ops_per_s", unit: "ops/s", better: Higher, bound: 0.01, host: false },
    EndToEnd { name: "sim_lat_mean_us", unit: "us", better: Lower, bound: 0.04, host: false },
    EndToEnd { name: "sim_lat_p50_us", unit: "us", better: Lower, bound: 0.15, host: false },
    EndToEnd { name: "sim_lat_p99_us", unit: "us", better: Lower, bound: 0.03, host: false },
    EndToEnd { name: "sim_lat_p999_us", unit: "us", better: Lower, bound: 0.06, host: false },
    EndToEnd {
        name: "flash_bytes_per_user_byte",
        unit: "ratio",
        better: Lower,
        bound: 0.001,
        host: false,
    },
];

/// What a per-layer value is computed from.
pub struct LayerInput<'a> {
    /// The public telemetry snapshot of the run.
    pub snapshot: &'a Snapshot,
    /// Registry prefix of the device under test (`""` or `"dev0."`).
    pub device: &'a str,
    /// Simulated seconds from device creation to the snapshot.
    pub sim_total_s: f64,
    /// Flash dies of the device under test.
    pub dies: u64,
    /// Host spans of the measured window.
    pub tracer: &'a Tracer,
    /// Whether the root span's self time is the `memdb` runner's (database
    /// workloads) or the benchmark's own generator's (device workloads).
    pub database: bool,
    /// Registry look-ups that found nothing. A value reads 0 both where the
    /// workload has no such layer and where a crate renamed the counter;
    /// a test tells the two apart by requiring every metric to find all it
    /// reads on at least one workload.
    pub missed: Cell<usize>,
}

impl LayerInput<'_> {
    /// A counter by full registry path.
    fn counter(&self, path: &str) -> f64 {
        match self.snapshot.get(path) {
            Some(MetricValue::Counter(c)) => *c as f64,
            _ => self.miss(),
        }
    }

    /// A counter of the device under test.
    fn dev_counter(&self, path: &str) -> f64 {
        self.counter(&format!("{}{path}", self.device))
    }

    /// A gauge of the device under test.
    fn dev_gauge(&self, path: &str) -> f64 {
        match self.snapshot.get(&format!("{}{path}", self.device)) {
            Some(MetricValue::Gauge(g)) => *g,
            _ => self.miss(),
        }
    }

    /// Sum of every counter, on any device, whose path satisfies `pick`.
    fn sum_where(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let mut found = false;
        let mut sum = 0.0;
        for (path, value) in self.snapshot.iter() {
            if let (true, MetricValue::Counter(c)) = (pick(path), value) {
                found = true;
                sum += *c as f64;
            }
        }
        if found {
            sum
        } else {
            self.miss()
        }
    }

    fn miss(&self) -> f64 {
        self.missed.set(self.missed.get() + 1);
        0.0
    }

    fn span(&self, name: SpanName) -> Aggregate {
        self.tracer.aggregate(name)
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

/// Where a per-layer metric's value comes from. Registry paths of a device
/// are relative to the device under test (`dev0.` on `log_replicated`).
pub enum Source {
    /// Total host seconds of a span name.
    SpanHost(SpanName),
    /// Calls of a span name.
    SpanCalls(SpanName),
    /// A registry counter of the device under test.
    DevCounter(&'static str),
    /// A registry gauge of the device under test.
    DevGauge(&'static str),
    /// A registry counter outside any device (the database's, the driver's).
    Counter(&'static str),
    /// Computed from several registry paths or from the spans.
    Derived(fn(&LayerInput<'_>) -> f64),
    /// Supplied by the workload (0 where the workload has no such layer).
    Workload,
    /// A layer probe, run in the traced child of its home workload (0 on
    /// the other workloads).
    Probe,
    /// Filled in by the runner from a traced/untraced pair.
    Runner,
}

/// One per-layer metric.
pub struct Layer {
    /// Metric name, `<crate>.<…>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where the value comes from.
    pub source: Source,
}

const fn span_host(name: &'static str, span: SpanName) -> Layer {
    Layer { name, unit: "s", better: Better::Lower, source: Source::SpanHost(span) }
}

const fn span_calls(name: &'static str, span: SpanName) -> Layer {
    Layer { name, unit: "count", better: Better::Lower, source: Source::SpanCalls(span) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Layer {
    Layer { name, unit, better, source }
}

const fn probe(name: &'static str) -> Layer {
    Layer { name, unit: "ns", better: Better::Lower, source: Source::Probe }
}

/// The per-layer metrics, outside-in. `benchmark/README.md` says where each
/// workload- and probe-supplied value is taken.
pub const PER_LAYER: &[Layer] = &[
    // Host spans around calls into a layer.
    span_host("bench.run.host_s", SpanName::Run),
    span_calls("bench.run.calls", SpanName::Run),
    span_host("bench.workload.execute.host_s", SpanName::Execute),
    span_calls("bench.workload.execute.calls", SpanName::Execute),
    span_host("memdb.backend.host_s", SpanName::Backend),
    span_calls("memdb.backend.calls", SpanName::Backend),
    span_host("core.x_pwrite.host_s", SpanName::XPwrite),
    span_calls("core.x_pwrite.calls", SpanName::XPwrite),
    span_host("core.x_fsync.host_s", SpanName::XFsync),
    span_calls("core.x_fsync.calls", SpanName::XFsync),
    span_host("core.cluster.submit.host_s", SpanName::Submit),
    span_calls("core.cluster.submit.calls", SpanName::Submit),
    span_host("core.cluster.advance.host_s", SpanName::Advance),
    span_calls("core.cluster.advance.calls", SpanName::Advance),
    span_host("core.cluster.completions.host_s", SpanName::Completions),
    span_calls("core.cluster.completions.calls", SpanName::Completions),
    span_host("ssd.stage_write.host_s", SpanName::StageWrite),
    span_calls("ssd.stage_write.calls", SpanName::StageWrite),
    // The root span's self time: runner + wal + log encode on database
    // workloads, the benchmark's own load generator on device workloads.
    layer(
        "memdb.runner.self_host_s",
        "s",
        Lower,
        Derived(|i| if i.database { i.span(SpanName::Run).self_ns as f64 / 1e9 } else { 0.0 }),
    ),
    layer(
        "bench.generator.self_host_s",
        "s",
        Lower,
        Derived(|i| if i.database { 0.0 } else { i.span(SpanName::Run).self_ns as f64 / 1e9 }),
    ),
    layer("trace.overhead_pct", "%", Lower, Runner),
    // Simulated time seen at the same boundaries.
    layer("memdb.backend.sim_sync_us_mean", "us", Lower, Workload),
    layer("memdb.wal.group_bytes_mean", "B", Higher, Workload),
    layer("memdb.commit_wait_sim_us_mean", "us", Lower, Workload),
    layer("core.x_pwrite.sim_us_mean", "us", Lower, Workload),
    layer("core.x_fsync.sim_us_mean", "us", Lower, Workload),
    layer("nvme.read_lat_p99_us", "us", Lower, Workload),
    layer("nvme.write_lat_p99_us", "us", Lower, Workload),
    layer("bench.fast_late_ns", "ns", Lower, Workload),
    // Work / busy / waiting / failed, from the telemetry snapshot.
    layer("pcie.host_link.tlps", "count", Lower, DevCounter("pcie.host_link.messages")),
    layer("pcie.host_link.busy_ns", "ns", Lower, DevCounter("pcie.host_link.busy_ns")),
    layer(
        "pcie.host_link.util_pct",
        "%",
        Lower,
        Derived(|i| pct(i.dev_counter("pcie.host_link.busy_ns"), i.sim_total_s * 1e9)),
    ),
    layer(
        "pcie.host_link.payload_eff_pct",
        "%",
        Higher,
        Derived(|i| {
            let payload = i.dev_counter("pcie.host_link.payload_bytes");
            pct(payload, payload + i.dev_counter("pcie.host_link.overhead_bytes"))
        }),
    ),
    // The NTB flows of every device (`flowN` on the primary, `upstream` on
    // the secondaries).
    layer(
        "pcie.ntb.forwarded_tlps",
        "count",
        Lower,
        Derived(|i| {
            i.sum_where(|p| p.contains("core.transport.") && p.ends_with(".forwarded_tlps"))
        }),
    ),
    layer(
        "pcie.ntb.busy_ns",
        "ns",
        Lower,
        Derived(|i| i.sum_where(|p| p.contains("core.transport.") && p.ends_with(".busy_ns"))),
    ),
    layer("core.fast.tlps", "count", Lower, DevCounter("core.fast.tlps")),
    layer("core.fast.credit_reads", "count", Lower, DevCounter("core.fast.credit_reads")),
    layer("core.fast.sram_port_busy_ns", "ns", Lower, DevCounter("core.fast.sram_port.busy_ns")),
    layer("core.cmb.bytes_in", "B", Higher, DevCounter("core.cmb.lane0.bytes_in")),
    layer("core.cmb.queue_high_water", "B", Lower, DevGauge("core.cmb.lane0.queue_high_water")),
    layer("core.cmb.held_chunks", "count", Lower, DevCounter("core.cmb.lane0.held_chunks")),
    layer("core.destage.full_pages", "count", Higher, DevCounter("core.destage.lane0.full_pages")),
    layer(
        "core.destage.partial_pages",
        "count",
        Lower,
        DevCounter("core.destage.lane0.partial_pages"),
    ),
    layer("core.destage.filler_bytes", "B", Lower, DevCounter("core.destage.lane0.filler_bytes")),
    layer(
        "core.destage.deadline_misses",
        "count",
        Lower,
        DevCounter("core.destage.lane0.deadline_misses"),
    ),
    layer("core.transport.mirrored_bytes", "B", Lower, DevCounter("core.transport.mirrored_bytes")),
    layer(
        "core.transport.mirror_messages",
        "count",
        Lower,
        DevCounter("core.transport.mirror_messages"),
    ),
    // Sent by every secondary, applied by the primary.
    layer(
        "core.transport.shadow_updates_sent",
        "count",
        Lower,
        Derived(|i| i.sum_where(|p| p.ends_with("core.transport.shadow_updates_sent"))),
    ),
    layer(
        "core.transport.shadow_updates_applied",
        "count",
        Lower,
        DevCounter("core.transport.shadow_updates_applied"),
    ),
    layer(
        "core.transport.replication_lag_bytes",
        "B",
        Lower,
        DevGauge("core.fast.replication_lag_bytes"),
    ),
    layer("flash.array.programs", "count", Lower, DevCounter("flash.array.programs")),
    layer("flash.array.reads", "count", Lower, DevCounter("flash.array.reads")),
    layer("flash.array.erases", "count", Lower, DevCounter("flash.array.erases")),
    layer("flash.array.die_busy_ns", "ns", Lower, DevCounter("flash.array.die_busy_ns")),
    layer(
        "flash.array.die_util_pct",
        "%",
        Lower,
        Derived(|i| {
            pct(i.dev_counter("flash.array.die_busy_ns"), i.dies as f64 * i.sim_total_s * 1e9)
        }),
    ),
    layer(
        "flash.array.bus_busy_ns",
        "ns",
        Lower,
        Derived(|i| {
            let head = format!("{}flash.array.bus", i.device);
            i.sum_where(|p| p.starts_with(&head) && p.ends_with(".busy_ns"))
        }),
    ),
    layer(
        "flash.array.program_failures",
        "count",
        Lower,
        DevCounter("flash.array.program_failures"),
    ),
    layer(
        "flash.sched.conventional_ops",
        "count",
        Lower,
        DevCounter("flash.sched.conventional.ops"),
    ),
    layer("flash.sched.destage_ops", "count", Lower, DevCounter("flash.sched.destage.ops")),
    layer("flash.sched.pending_ops", "count", Lower, DevGauge("flash.sched.pending_ops")),
    layer("nvme.driver.commands", "count", Lower, Counter("nvme.driver.commands")),
    layer("nvme.port.submitted", "count", Lower, Workload),
    layer("nvme.port.completed", "count", Higher, Workload),
    layer("nvme.port.max_inflight", "count", Higher, Workload),
    layer("nvme.port.retries", "count", Lower, Workload),
    layer("ssd.buffer.read_hits", "count", Higher, DevCounter("ssd.buffer.read_hits")),
    layer("ssd.buffer.read_misses", "count", Lower, DevCounter("ssd.buffer.read_misses")),
    layer("ssd.buffer.evictions", "count", Lower, DevCounter("ssd.buffer.evictions")),
    layer(
        "ssd.buffer.hit_rate_pct",
        "%",
        Higher,
        Derived(|i| {
            let hits = i.dev_counter("ssd.buffer.read_hits");
            pct(hits, hits + i.dev_counter("ssd.buffer.read_misses"))
        }),
    ),
    layer("ssd.ftl.host_writes", "count", Lower, DevCounter("ssd.ftl.host_writes")),
    layer("ssd.ftl.gc_writes", "count", Lower, DevCounter("ssd.ftl.gc_writes")),
    layer("ssd.ftl.write_amplification", "ratio", Lower, DevGauge("ssd.ftl.write_amplification")),
    layer("ssd.ftl.map_reads", "count", Lower, DevCounter("ssd.ftl.map_reads")),
    layer("ssd.hic.fetch_busy_ns", "ns", Lower, DevCounter("ssd.hic.fetch_busy_ns")),
    layer(
        "ssd.served_conventional_mbps",
        "MB/s",
        Higher,
        Derived(|i| per_sim_second(i, "ssd.served_conventional_bytes") / 1e6),
    ),
    layer(
        "ssd.served_destage_mbps",
        "MB/s",
        Higher,
        Derived(|i| per_sim_second(i, "ssd.served_destage_bytes") / 1e6),
    ),
    layer("memdb.commits", "count", Higher, Counter("db.commits")),
    layer("memdb.aborts", "count", Lower, Counter("db.aborts")),
    layer("memdb.log_bytes", "B", Lower, Counter("db.log_bytes")),
    layer("memdb.wal.flushes", "count", Lower, Counter("db.wal.flushes")),
    layer("memdb.log.max_inflight", "count", Higher, Workload),
    layer("tpcc.new_order", "count", Higher, Counter("db.tpcc.new_order")),
    layer("tpcc.payment", "count", Higher, Counter("db.tpcc.payment")),
    layer("tpcc.order_status", "count", Higher, Counter("db.tpcc.order_status")),
    layer("tpcc.delivery", "count", Higher, Counter("db.tpcc.delivery")),
    layer("tpcc.stock_level", "count", Higher, Counter("db.tpcc.stock_level")),
    layer("tpcc.rollbacks", "count", Lower, Counter("db.tpcc.rollbacks")),
    layer("tpcc.new_order.sim_lat_mean_us", "us", Lower, Workload),
    layer("tpcc.payment.sim_lat_mean_us", "us", Lower, Workload),
    layer("tpcc.order_status.sim_lat_mean_us", "us", Lower, Workload),
    layer("tpcc.delivery.sim_lat_mean_us", "us", Lower, Workload),
    layer("tpcc.stock_level.sim_lat_mean_us", "us", Lower, Workload),
    layer("bench.ycsb.read", "count", Higher, Counter("db.ycsb.read")),
    layer("bench.ycsb.update", "count", Higher, Counter("db.ycsb.update")),
    // Layer probes: fixed op counts against one layer's public API
    // (`probes.rs` says what each one times).
    probe("tpcc.probe.mixed_txn_ns"),
    probe("memdb.probe.commit_8r4w_ns"),
    probe("memdb.probe.wal_encode_64_ns"),
    probe("memdb.probe.wal_decode_64_ns"),
    probe("bench.probe.ycsb_point_read_ns"),
    probe("nvme.probe.write_flush_16k_ns"),
    probe("core.probe.cmb_ingest_64k_ns"),
    probe("core.probe.fast_write_fsync_16k_ns"),
    probe("simkit.probe.event_queue_1k_ns"),
    probe("simkit.probe.event_queue_cancel_half_ns"),
    probe("simkit.probe.serial_resource_ns"),
    probe("flash.probe.sched_pump_512_ns"),
    probe("ssd.probe.ftl_alloc_4096_ns"),
];

/// A counter of the device under test per simulated second of the run.
fn per_sim_second(i: &LayerInput<'_>, path: &str) -> f64 {
    let total = i.dev_counter(path);
    if i.sim_total_s > 0.0 {
        total / i.sim_total_s
    } else {
        0.0
    }
}

/// Compute every per-layer value of one traced run. `from_workload` and
/// `probes` supply the values only their owners can see; what they do not
/// name reads 0 (the layer is absent from that workload).
pub fn layer_values(
    input: &LayerInput<'_>,
    from_workload: &[(&'static str, f64)],
    probes: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let lookup = |list: &[(&'static str, f64)], name: &str| {
        list.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    };
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match &m.source {
                Source::SpanHost(s) => input.span(*s).total_ns as f64 / 1e9,
                Source::SpanCalls(s) => input.span(*s).calls as f64,
                Source::DevCounter(path) => input.dev_counter(path),
                Source::DevGauge(path) => input.dev_gauge(path),
                Source::Counter(path) => input.counter(path),
                Source::Derived(f) => f(input),
                Source::Workload => lookup(from_workload, m.name),
                Source::Probe => lookup(probes, m.name),
                Source::Runner => 0.0,
            };
            (m.name, value)
        })
        .collect()
}

/// Whether `name` is a legal metric or workload name: 1–64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_respects_the_contract_limits() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
        }
        // setup_s is required, in seconds, lower-is-better, largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn name_and_unit_rules() {
        for ok in ["a", "tpcc_local", "core.x_fsync.host_s", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "has space", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "ops/s", "%", "1/s", "MB/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn layer_values_cover_every_name_once() {
        let mut reg = simkit::MetricsRegistry::new();
        reg.counter("dev0.pcie.host_link.messages", 10);
        reg.counter("dev0.pcie.host_link.busy_ns", 500);
        reg.counter("dev0.pcie.host_link.payload_bytes", 300);
        reg.counter("dev0.pcie.host_link.overhead_bytes", 100);
        reg.counter("dev0.flash.array.bus0.busy_ns", 7);
        reg.counter("dev0.flash.array.bus1.busy_ns", 8);
        reg.counter("dev0.core.transport.flow1.forwarded_tlps", 3);
        reg.counter("dev1.core.transport.upstream.forwarded_tlps", 4);
        reg.counter("dev1.core.transport.shadow_updates_sent", 5);
        reg.counter("dev2.core.transport.shadow_updates_sent", 6);
        reg.counter("db.commits", 42);
        let snapshot = reg.snapshot();
        let mut tracer = Tracer::new(1);
        tracer.enter(SpanName::Run, 0);
        tracer.enter(SpanName::XFsync, 100);
        tracer.exit(600);
        tracer.exit(1_000);
        let input = LayerInput {
            snapshot: &snapshot,
            device: "dev0.",
            sim_total_s: 1e-6,
            dies: 4,
            tracer: &tracer,
            database: false,
            missed: Cell::new(0),
        };
        let values = layer_values(
            &input,
            &[("core.x_fsync.sim_us_mean", 13.5)],
            &[("simkit.probe.serial_resource_ns", 4.25)],
        );
        assert_eq!(values.len(), PER_LAYER.len());
        let get = |n: &str| values.iter().find(|(name, _)| *name == n).unwrap().1;
        assert_eq!(get("pcie.host_link.tlps"), 10.0);
        assert_eq!(get("pcie.host_link.util_pct"), 50.0);
        assert_eq!(get("pcie.host_link.payload_eff_pct"), 75.0);
        assert_eq!(get("flash.array.bus_busy_ns"), 15.0);
        assert_eq!(get("pcie.ntb.forwarded_tlps"), 7.0);
        assert_eq!(get("core.transport.shadow_updates_sent"), 11.0);
        assert_eq!(get("memdb.commits"), 42.0);
        assert_eq!(get("core.x_fsync.host_s"), 500e-9);
        assert_eq!(get("core.x_fsync.calls"), 1.0);
        assert_eq!(get("bench.generator.self_host_s"), 500e-9);
        assert_eq!(get("memdb.runner.self_host_s"), 0.0);
        assert_eq!(get("core.x_fsync.sim_us_mean"), 13.5);
        assert_eq!(get("simkit.probe.serial_resource_ns"), 4.25);
        assert_eq!(get("tpcc.new_order"), 0.0);
    }

    /// A value reads 0 where the workload has no such layer; a counter a
    /// crate renamed or dropped would read 0 everywhere. Every
    /// registry-sourced metric must find all it reads on some workload.
    #[test]
    fn every_registry_sourced_metric_finds_its_paths_on_some_workload() {
        use crate::workloads::{Scale, WORKLOADS};
        let outcomes: Vec<_> = WORKLOADS.iter().map(|w| (w.run)(7, Scale::Quick)).collect();
        let tracer = Tracer::new(1);
        for m in PER_LAYER {
            let found = outcomes.iter().any(|o| {
                let input = LayerInput {
                    snapshot: &o.snapshot,
                    device: o.device_prefix,
                    sim_total_s: 1.0,
                    dies: o.dies,
                    tracer: &tracer,
                    database: o.fingerprint.is_some(),
                    missed: Cell::new(0),
                };
                match &m.source {
                    Source::DevCounter(path) => input.dev_counter(path),
                    Source::DevGauge(path) => input.dev_gauge(path),
                    Source::Counter(path) => input.counter(path),
                    Source::Derived(f) => f(&input),
                    _ => 0.0,
                };
                input.missed.get() == 0
            });
            assert!(found, "{}: no workload's registry has what it reads", m.name);
        }
    }
}
