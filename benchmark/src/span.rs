//! Host-time spans around the calls into each layer.
//!
//! The benchmark times the stack from outside: every call it (or one of its
//! wrappers) makes into a crate is bracketed by a span. A span has an id,
//! its parent's id, a name, and start/end in host nanoseconds since the
//! tracer's epoch; all spans of a run share the run id. Per name the tracer
//! keeps call count, total time and *self* time (duration minus the part
//! covered by child spans), so the self times of a tree sum to the root's
//! duration exactly.
//!
//! A 30-second YCSB window makes ~10 M spans, so only the first
//! [`KEEP_SPANS`] after the measured window opens are retained as records
//! (for the Chrome-trace file); the aggregates cover every span.
//!
//! Tracing is off unless [`install`] was called: [`scope`] then costs one
//! thread-local flag read, which is what the untraced runs pay.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Span records retained after the measured window opens.
pub const KEEP_SPANS: usize = 2000;

/// The layer boundaries the benchmark can see from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// The measured window of one child (root).
    Run,
    /// `Workload::execute` — tpcc or bench::ycsb, plus memdb::storage.
    Execute,
    /// Any `LogBackend` call: everything under the WAL.
    Backend,
    /// `XLogFile::x_pwrite`.
    XPwrite,
    /// `XLogFile::x_fsync`.
    XFsync,
    /// `Cluster::submit`.
    Submit,
    /// `Cluster::advance`.
    Advance,
    /// `Cluster::completions_into`.
    Completions,
    /// `ConventionalSsd::stage_write_data`.
    StageWrite,
}

impl SpanName {
    /// Every name, in [`SpanName::index`] order.
    pub const ALL: [SpanName; 9] = [
        SpanName::Run,
        SpanName::Execute,
        SpanName::Backend,
        SpanName::XPwrite,
        SpanName::XFsync,
        SpanName::Submit,
        SpanName::Advance,
        SpanName::Completions,
        SpanName::StageWrite,
    ];

    /// The per-layer metric prefix (`<label>.host_s`, `<label>.calls`).
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Run => "bench.run",
            SpanName::Execute => "bench.workload.execute",
            SpanName::Backend => "memdb.backend",
            SpanName::XPwrite => "core.x_pwrite",
            SpanName::XFsync => "core.x_fsync",
            SpanName::Submit => "core.cluster.submit",
            SpanName::Advance => "core.cluster.advance",
            SpanName::Completions => "core.cluster.completions",
            SpanName::StageWrite => "ssd.stage_write",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One retained span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique within the run, from 1.
    pub id: u64,
    /// The enclosing span's id (0 for the root).
    pub parent: u64,
    /// Which boundary.
    pub name: SpanName,
    /// Host ns since the tracer's epoch.
    pub start_ns: u64,
    /// Host ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Per-name totals over every span of the measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Spans closed.
    pub calls: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus child-covered time, ns.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: SpanName,
    start_ns: u64,
    children_ns: u64,
}

/// The span recorder. Time is passed in, so the arithmetic is testable on
/// a synthetic tree; [`scope`] feeds it the host clock.
#[derive(Debug)]
pub struct Tracer {
    run_id: u64,
    stack: Vec<Open>,
    aggregates: [Aggregate; SpanName::ALL.len()],
    kept: Vec<SpanRecord>,
    keeping: bool,
    next_id: u64,
}

impl Tracer {
    /// A tracer for run `run_id` (shared by all its spans).
    pub fn new(run_id: u64) -> Self {
        Tracer {
            run_id,
            stack: Vec::new(),
            aggregates: [Aggregate::default(); SpanName::ALL.len()],
            kept: Vec::new(),
            keeping: false,
            next_id: 1,
        }
    }

    /// Open a span at `now_ns`, child of the innermost open span.
    pub fn enter(&mut self, name: SpanName, now_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open { id, name, start_ns: now_ns, children_ns: 0 });
    }

    /// Close the innermost open span at `now_ns`.
    pub fn exit(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("span exit without a matching enter");
        let duration = now_ns.saturating_sub(open.start_ns);
        let agg = &mut self.aggregates[open.name.index()];
        agg.calls += 1;
        agg.total_ns += duration;
        agg.self_ns += duration.saturating_sub(open.children_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children_ns += duration;
                p.id
            }
            None => 0,
        };
        if self.keeping && self.kept.len() < KEEP_SPANS {
            self.kept.push(SpanRecord {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns: now_ns,
            });
        }
    }

    /// The measured window opens at `now_ns`: forget everything recorded
    /// so far (set-up and ramp-up are not measured), restart the spans
    /// still open from this instant, and begin retaining records.
    pub fn open_window(&mut self, now_ns: u64) {
        self.aggregates = [Aggregate::default(); SpanName::ALL.len()];
        self.kept.clear();
        self.keeping = true;
        for open in &mut self.stack {
            open.start_ns = now_ns;
            open.children_ns = 0;
        }
    }

    /// Totals for `name`.
    pub fn aggregate(&self, name: SpanName) -> Aggregate {
        self.aggregates[name.index()]
    }

    /// Spans still open (0 once a run has unwound).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The retained records, in closing order.
    #[cfg(test)]
    pub fn kept(&self) -> &[SpanRecord] {
        &self.kept
    }

    /// The retained records as a Chrome-trace (`chrome://tracing`,
    /// Perfetto) document of complete (`"ph":"X"`) events, µs timestamps.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .kept
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::str(s.name.label())),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(1)),
                    ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                    ("dur", Json::F64((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::object([
                            ("id", Json::U64(s.id)),
                            ("parent", Json::U64(s.parent)),
                            ("run", Json::str(format!("{:016x}", self.run_id))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object([("displayTimeUnit", Json::str("ns")), ("traceEvents", Json::Array(events))])
    }
}

struct Installed {
    tracer: Tracer,
    epoch: Instant,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

/// Turn tracing on for this thread.
pub fn install(run_id: u64) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Installed { tracer: Tracer::new(run_id), epoch: Instant::now() });
    });
    ENABLED.with(|e| e.set(true));
}

/// Whether [`install`] was called.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turn tracing off and hand back what was recorded.
pub fn take() -> Option<Tracer> {
    ENABLED.with(|e| e.set(false));
    TRACER.with(|t| t.borrow_mut().take()).map(|i| i.tracer)
}

fn with_tracer(f: impl FnOnce(&mut Tracer, u64)) {
    TRACER.with(|t| {
        if let Some(i) = t.borrow_mut().as_mut() {
            let now_ns = i.epoch.elapsed().as_nanos() as u64;
            f(&mut i.tracer, now_ns);
        }
    });
}

/// Run `f` inside a span named `name` (just `f` when tracing is off).
#[inline]
pub fn scope<R>(name: SpanName, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    with_tracer(|t, now| t.enter(name, now));
    let out = f();
    with_tracer(|t, now| t.exit(now));
    out
}

/// Tell the tracer the measured window opens now (no-op when off).
pub fn open_window() {
    if enabled() {
        with_tracer(|t, now| t.open_window(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..100 { execute 10..30 { backend 15..25 }, backend 40..70,
    /// execute 70..90 }
    fn synthetic() -> Tracer {
        let mut t = Tracer::new(7);
        t.enter(SpanName::Run, 0);
        t.enter(SpanName::Execute, 10);
        t.enter(SpanName::Backend, 15);
        t.exit(25);
        t.exit(30);
        t.enter(SpanName::Backend, 40);
        t.exit(70);
        t.enter(SpanName::Execute, 70);
        t.exit(90);
        t.exit(100);
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = synthetic();
        assert_eq!(t.depth(), 0);
        let run = t.aggregate(SpanName::Run);
        let exec = t.aggregate(SpanName::Execute);
        let back = t.aggregate(SpanName::Backend);
        assert_eq!(run, Aggregate { calls: 1, total_ns: 100, self_ns: 30 });
        assert_eq!(exec, Aggregate { calls: 2, total_ns: 40, self_ns: 30 });
        assert_eq!(back, Aggregate { calls: 2, total_ns: 40, self_ns: 40 });
        // Self times of the whole tree account for the root exactly.
        let self_sum: u64 = SpanName::ALL.iter().map(|n| t.aggregate(*n).self_ns).sum();
        assert_eq!(self_sum, run.total_ns);
    }

    #[test]
    fn window_open_discards_setup_and_restarts_open_spans() {
        let mut t = Tracer::new(1);
        t.enter(SpanName::Run, 0);
        t.enter(SpanName::Execute, 5); // ramp-up work
        t.exit(50);
        t.enter(SpanName::Execute, 60);
        t.open_window(80); // the window opens inside this call
        t.exit(100);
        t.exit(130);
        assert_eq!(
            t.aggregate(SpanName::Execute),
            Aggregate { calls: 1, total_ns: 20, self_ns: 20 }
        );
        assert_eq!(t.aggregate(SpanName::Run), Aggregate { calls: 1, total_ns: 50, self_ns: 30 });
        // Records are kept only from the window on, with parent links.
        let kept = t.kept();
        assert_eq!(kept.len(), 2);
        assert_eq!((kept[0].name, kept[0].parent), (SpanName::Execute, 1));
        assert_eq!((kept[1].name, kept[1].parent, kept[1].id), (SpanName::Run, 0, 1));
    }

    #[test]
    fn retention_is_bounded_but_aggregates_are_not() {
        let mut t = Tracer::new(1);
        t.open_window(0);
        for i in 0..(KEEP_SPANS as u64 + 500) {
            t.enter(SpanName::Advance, i * 10);
            t.exit(i * 10 + 4);
        }
        assert_eq!(t.kept().len(), KEEP_SPANS);
        assert_eq!(t.aggregate(SpanName::Advance).calls, KEEP_SPANS as u64 + 500);
        let doc = t.chrome_trace("w").to_string();
        assert!(doc.contains("\"ph\":\"X\"") && doc.contains("core.cluster.advance"));
        assert!(doc.contains("\"run\":\"0000000000000001\""));
    }

    #[test]
    fn scope_is_transparent_when_off_and_records_when_on() {
        assert!(!enabled());
        assert_eq!(scope(SpanName::Submit, || 3), 3);
        install(9);
        open_window();
        let v = scope(SpanName::Run, || scope(SpanName::Submit, || 4));
        assert_eq!(v, 4);
        let t = take().expect("installed");
        assert!(!enabled());
        assert_eq!(t.aggregate(SpanName::Submit).calls, 1);
        let run = t.aggregate(SpanName::Run);
        assert_eq!(run.calls, 1);
        assert!(run.total_ns >= t.aggregate(SpanName::Submit).total_ns);
    }
}
