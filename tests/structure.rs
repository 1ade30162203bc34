//! The repository's structural rules: a deleted model or a second path
//! coming back, a panic site past the ratchet, a module nothing runs, a
//! config field no caller sets. Literal needles are rows of [`RULES`], the
//! other rules the functions of [`CHECKS`]. Each has a fixture that plants a
//! violation and expects it reported by `path:line`.
//!
//! One walker reads every file type (a needle in a `Cargo.toml` counts),
//! skipping `target/`. Non-test code is [`live`], a file up to its first
//! column-0 `#[cfg(test)]`, except that [`reachability`] cuts at a
//! `#[cfg(test)]` module and [`knob_paths`] reads whole files; both strip
//! comments. This file spells every pattern, so every rule exempts it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// `(path relative to the repository root, text)`, sorted by path.
type Tree = Vec<(String, String)>;

const RULE_FILE: &str = "tests/structure.rs";

/// Every root a rule reads lies under one of these.
const TOPS: &[&str] = &["crates", "src", "tests", "examples", "benchmark", "results", "CHANGES.md"];

fn read_tree(repo: &Path) -> Tree {
    fn walk(path: &Path, rel: String, out: &mut Tree) {
        if let Ok(dir) = std::fs::read_dir(path) {
            for name in dir.map(|entry| entry.expect("readable entry").file_name()) {
                let name = name.to_string_lossy();
                (name != "target").then(|| walk(&path.join(&*name), format!("{rel}/{name}"), out));
            }
        } else if let Ok(bytes) = std::fs::read(path) {
            out.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
    let mut tree = Tree::new();
    TOPS.iter().for_each(|top| walk(&repo.join(top), top.to_string(), &mut tree));
    tree.sort();
    tree
}

/// Non-test code: `text` up to its first line that starts with `#[cfg(test)]`.
fn live(text: &str) -> &str {
    let mut cuts = text.match_indices("#[cfg(test)]").map(|(at, _)| at);
    &text[..cuts.find(|&at| at == 0 || text[..at].ends_with('\n')).unwrap_or(text.len())]
}

/// Whether `path` is `root` or lies below it. A segment of `root` may hold
/// one `*`, which matches within that segment (`crates/*/src`, `src/*.rs`).
fn under(path: &str, root: &str) -> bool {
    let mut segs = path.split('/');
    root.split('/').filter(|s| !s.is_empty()).all(|pat| {
        segs.next().is_some_and(|seg| match pat.split_once('*') {
            Some((pre, post)) => {
                seg.len() >= pre.len() + post.len() && seg.starts_with(pre) && seg.ends_with(post)
            }
            None => seg == pat,
        })
    })
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn ends_in_word(s: &str) -> bool {
    s.chars().next_back().is_some_and(is_word)
}

fn word_at(s: &str) -> &str {
    &s[..s.find(|c: char| !is_word(c)).unwrap_or(s.len())]
}

fn word_before(s: &str) -> &str {
    let len: usize = s.chars().rev().take_while(|&c| is_word(c)).map(char::len_utf8).sum();
    &s[s.len() - len..]
}

fn skip_ws(s: &str) -> &str {
    s.trim_start_matches(char::is_whitespace)
}

fn trim_ws(s: &str) -> &str {
    s.trim_end_matches(char::is_whitespace)
}

/// Byte offsets where `needle` starts in `text`. A needle is literal text,
/// except that a leading or trailing `\b` asks for a word boundary there
/// and ` *` stands for any run of spaces.
fn hits<'a>(text: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let (core, left) = needle.strip_prefix("\\b").map_or((needle, false), |c| (c, true));
    let (core, right) = core.strip_suffix("\\b").map_or((core, false), |c| (c, true));
    let mut parts = core.split(" *");
    let first = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    text.match_indices(first).map(|(at, _)| at).filter(move |&at| {
        let mut end = at + first.len();
        for part in &rest {
            end = text.len() - text[end..].trim_start_matches(' ').len();
            if !text[end..].starts_with(part) {
                return false;
            }
            end += part.len();
        }
        !(left && ends_in_word(&text[..at]) || right && !word_at(&text[end..]).is_empty())
    })
}

/// The line number of offset `at` in `text`, and that line.
fn line_of(text: &str, at: usize) -> (usize, &str) {
    let start = text[..at].rfind('\n').map_or(0, |n| n + 1);
    (text[..start].matches('\n').count() + 1, text[start..].lines().next().unwrap_or_default())
}

/// `path:line: text` of each line of `text` that holds one of `offsets`.
fn lines_at(path: &str, text: &str, offsets: impl IntoIterator<Item = usize>) -> Vec<String> {
    let lines: BTreeMap<usize, &str> = offsets.into_iter().map(|at| line_of(text, at)).collect();
    lines.into_iter().map(|(n, line)| format!("{path}:{n}: {line}")).collect()
}

/// One literal rule: no line of a file under `roots` holds a needle.
struct Rule {
    name: &'static str,
    /// Where the rule is stated.
    origin: &'static str,
    needles: &'static [&'static str],
    roots: &'static [&'static str],
    /// Read only [`live`] code, not the whole file.
    live: bool,
    exempt: &'static [&'static str],
    fail: &'static str,
}

const WHOLE_TREE: &[&str] = &["crates/", "src/", "tests/", "examples/"];

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule { name: "fixed hardware constants", origin: "ROADMAP item 25",
        needles: &["\\bDmaConfig\\b", "\\bHicConfig\\b", "\\bNtbConfig\\b"],
        roots: &["crates/"], live: false, exempt: &[],
        fail: "a config struct of fixed hardware constants is back under crates/." },
    Rule { name: "one flash error source", origin: "DESIGN.md: flash errors come from the fault plan",
        needles: &["program_fail_rate", "base_bit_error_rate", "ecc_correctable_bits",
            "expected_bit_errors", "sample_bit_errors", "Uncorrectable"],
        roots: &["crates/", "src/", "tests/"], live: false, exempt: &[],
        fail: "a second flash error source is back." },
    Rule { name: "one copy of each claim", origin: "ROADMAP item 21",
        needles: &["println!(\"expected"],
        roots: &["crates/bench/src/bin/"], live: false, exempt: &[],
        fail: "a harness prints its expected shape as prose; state it as a predicate in crates/bench/tests/paper_shapes.rs." },
    Rule { name: "no RDMA model", origin: "ROADMAP item 21",
        needles: &["RdmaTransport", "RdmaConfig", "mod rdma"],
        roots: WHOLE_TREE, live: false, exempt: &[],
        fail: "the RDMA transport model is back." },
    Rule { name: "one golden reader", origin: "ROADMAP item 29",
        needles: &["../../results"],
        roots: &["crates/*/tests", "tests/"], live: false,
        exempt: &["crates/bench/tests/golden/mod.rs"],
        fail: "a test reads results/ without crates/bench/tests/golden/mod.rs." },
    Rule { name: "one latency collector", origin: "ROADMAP aim 4: exact percentiles",
        needles: &["Histogram", "percentile_lower_bound", "p99_us_exact"],
        roots: &["crates/"], live: false, exempt: &[],
        fail: "a second latency collector or an _exact side channel is back under crates/." },
    Rule { name: "one workload runner", origin: "ROADMAP aim 2: memdb::runner::run, a Workload",
        needles: &["run_workload", "run_observed", "RunnerConfig", "ObserveConfig", "ObservedRun"],
        roots: WHOLE_TREE, live: false, exempt: &[],
        fail: "a second entry point into the worker loop is back." },
    Rule { name: "no unsafe code", origin: "ROADMAP aim 2: simkit::Bytes wraps Arc<[u8]>",
        needles: &["\\bunsafe\\b"],
        roots: &["crates/*/src"], live: false, exempt: &[],
        fail: "unsafe code under crates/*/src." },
    Rule { name: "one CMB intake", origin: "ROADMAP item 13",
        needles: &["send_chunks", "take_run", "runs_refused", "run_chunks", ".chunks("],
        roots: &["crates/core/src/*.rs"], live: true, exempt: &[],
        fail: "a second CMB intake path is back in crates/core/src." },
    Rule { name: "one log per device", origin: "DESIGN.md: one credit counter per device",
        needles: &["writer_lanes", "open_lane", "struct Lane\\b", "fn lanes("],
        roots: &["crates/*/src"], live: false, exempt: &[],
        fail: "crates/*/src names the writer-lane fan-out again." },
    Rule { name: "one table index", origin: "PERFORMANCE.md rule 11",
        needles: &["BTreeMap"],
        roots: &["crates/memdb/src/storage.rs"], live: true, exempt: &[],
        fail: "crates/memdb/src/storage.rs names BTreeMap outside its tests." },
    Rule { name: "one copy per stored row", origin: "PERFORMANCE.md rule 5",
        needles: &["Index<Key, *Row>"],
        roots: &["crates/memdb/src/storage.rs"], live: false, exempt: &[],
        fail: "crates/memdb/src/storage.rs indexes rows as Bytes again; store them in the table's RowArena." },
    Rule { name: "one log checksum", origin: "memdb::log::checksum frames records and snapshots",
        needles: &["fnv1a"],
        roots: &["crates/memdb/src"], live: false, exempt: &[],
        fail: "crates/memdb/src names fnv1a; frame with memdb::log::checksum." },
    Rule { name: "one copy of the log", origin: "ROADMAP aim 2: the destage ring is the log",
        needles: &["SegmentedLog", "enable_segments", "replay_segments", "deliver_archived",
            "apply_archived", "SegmentView"],
        roots: WHOLE_TREE, live: false, exempt: &[],
        fail: "a host-side copy of the log is back." },
    Rule { name: "no second path without a caller",
        origin: "ROADMAP aim 2: one failure path, one SSD write mode, one wire type",
        needles: &["SimError", "DiagnosticSnapshot", "try_drive_to_completion",
            "try_wait_for_completion", "try_content", "write_cache", "hardware_multicast",
            "\\bLink::new", "simkit::Link\\b"],
        roots: WHOLE_TREE, live: false, exempt: &[],
        fail: "a second path without a caller is back." },
    Rule { name: "no garbage collector", origin: "DESIGN.md: a fresh device, nothing erased",
        needles: &["plan_gc", "GcPlan", "run_gc", "GcWrite", "gc_threshold", "needs_gc",
            "block_erased", "OpKind::Erase", "pe_cycles"],
        roots: &["crates/ssd/src", "crates/flash/src"], live: false, exempt: &[],
        fail: "crates/ssd/src or crates/flash/src names a garbage collector or the erase/wear model." },
    Rule { name: "one hasher for the device maps", origin: "PERFORMANCE.md: one fixed hasher",
        needles: &["HashMap", "HashSet"],
        roots: &["crates/ssd/src/*.rs", "crates/nvme/src/*.rs", "crates/flash/src/*.rs",
            "crates/core/src/destage.rs"], live: true, exempt: &[],
        fail: "a std-hashed map is back in the device models; use simkit::IntMap / IntSet." },
    Rule { name: "no scan in the data buffer", origin: "PERFORMANCE.md rule 7",
        needles: &[".position("],
        roots: &["crates/ssd/src/buffer.rs"], live: false, exempt: &[],
        fail: "crates/ssd/src/buffer.rs searches a queue by position." },
    Rule { name: "one crash checker", origin: "ROADMAP item 26: the crash explorer",
        needles: &["lifecycle_arcs", "LifecycleWorld"],
        roots: WHOLE_TREE, live: false, exempt: &[],
        fail: "a sampled log-lifecycle crash arc is back beside the crash explorer." },
];

/// The files under any of `roots`, except this one.
fn files<'t>(tree: &'t Tree, roots: &[&'t str]) -> impl Iterator<Item = (&'t str, &'t str)> + 't {
    let roots = roots.to_vec();
    tree.iter()
        .filter(move |(path, _)| path != RULE_FILE && roots.iter().any(|root| under(path, root)))
        .map(|(path, text)| (path.as_str(), text.as_str()))
}

fn check(rule: &Rule, tree: &Tree) -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in files(tree, rule.roots).filter(|(path, _)| !rule.exempt.contains(path)) {
        let text = if rule.live { live(text) } else { text };
        found.extend(lines_at(path, text, rule.needles.iter().flat_map(|n| hits(text, n))));
    }
    found
}

/// PERFORMANCE.md rule 2: a `next_event_after(` or `next_(flush_)completion_at(`
/// call followed on its line, before a `;`, by `unwrap_or` or `from_micros`,
/// and a `schedule(` followed so by `from_micros`.
fn clock_nudges(tree: &Tree) -> Vec<String> {
    const NUDGES: &[(&str, &[&str])] = &[
        ("next_event_after(", &["unwrap_or", "from_micros"]),
        ("next_completion_at(", &["unwrap_or", "from_micros"]),
        ("next_flush_completion_at(", &["unwrap_or", "from_micros"]),
        ("schedule(", &["from_micros"]),
    ];
    let mut found = Vec::new();
    for (path, text) in files(tree, &["crates/*/src"]) {
        let mut calls = Vec::new();
        for &(call, fallbacks) in NUDGES {
            for (at, _) in text.match_indices(call) {
                let stmt = text[at + call.len()..].split(['\n', ';']).next().unwrap_or_default();
                calls.extend(fallbacks.iter().any(|f| stmt.contains(f)).then_some(at));
            }
        }
        found.extend(lines_at(path, text, calls));
    }
    found
}

/// PERFORMANCE.md rule 10: `memdb::runner` declares one `SampleSeries`
/// field and no per-sample `Vec<u8>` tag outside its tests. A field is a
/// line `<indent>[pub ]name: Type,` with `name` in `[a-z_]+`.
fn one_latency_copy(tree: &Tree) -> Vec<String> {
    fn field_type(line: &str) -> Option<&str> {
        let decl = skip_ws(line);
        let (name, ty) = decl.strip_prefix("pub ").unwrap_or(decl).split_once(": ")?;
        let named = !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || c == '_');
        (decl.len() < line.len() && named).then_some(ty)
    }
    let series = |ty: &str| {
        let outer =
            ty.strip_suffix(',').and_then(|t| t.trim_end_matches('>').strip_suffix("SampleSeries"));
        outer.is_some_and(|o| o.chars().all(|c| c.is_ascii_alphabetic() || "_:<".contains(c)))
    };
    let mut found = Vec::new();
    for (path, text) in files(tree, &["crates/memdb/src/runner.rs"]) {
        let fields = |hit: &dyn Fn(&str) -> bool| -> Vec<String> {
            let lines = live(text).lines().enumerate();
            let lines = lines.filter(|(_, line)| field_type(line).is_some_and(hit));
            lines.map(|(n, line)| format!("{path}:{}: {line}", n + 1)).collect()
        };
        found.extend(Some(fields(&series)).filter(|fields| fields.len() > 1).unwrap_or_default());
        found.extend(fields(&|ty| ty == "Vec<u8>,"));
    }
    found
}

/// ROADMAP item 9: a `CHANGES.md` line is at most 1024 bytes.
fn changes_lines_stay_short(tree: &Tree) -> Vec<String> {
    let long = |(n, line): (usize, &str)| {
        (line.len() > 1024).then(|| format!("CHANGES.md:{}: {} bytes", n + 1, line.len()))
    };
    let lines = files(tree, &["CHANGES.md"]).flat_map(|(_, text)| text.split('\n').enumerate());
    lines.filter_map(long).collect()
}

/// ROADMAP item 24: `results/` holds only the `*.json` goldens.
fn results_hold_only_goldens(tree: &Tree) -> Vec<String> {
    let stray = |(path, _): (&str, &str)| {
        (!path.ends_with(".json")).then(|| format!("{path}:1: not a *.json golden"))
    };
    files(tree, &["results"]).filter_map(stray).collect()
}

/// ROADMAP item 5c: the panic sites in `crates/*/src` outside tests. The
/// count may only fall, and the ceiling falls with it.
const PANIC_CEILING: usize = 102;

fn panic_sites(tree: &Tree) -> Vec<String> {
    const SITES: &[&str] = &[".unwrap()", ".expect(", "panic!(", "unreachable!("];
    let mut found = Vec::new();
    for (path, text) in files(tree, &["crates/*/src"]).filter(|(path, _)| path.ends_with(".rs")) {
        let text = live(text);
        let mut sites: Vec<usize> = SITES.iter().flat_map(|site| hits(text, site)).collect();
        sites.sort();
        let site = |(n, line): (usize, &str)| format!("{path}:{n}: {}", line.trim());
        found.extend(sites.into_iter().map(|at| site(line_of(text, at))));
    }
    found
}

/// The ratchet at `ceiling`: it fails above it, and below it, so that the
/// ceiling is lowered as sites go.
fn ratchet(tree: &Tree, ceiling: usize) -> Vec<String> {
    let sites = panic_sites(tree);
    let n = sites.len();
    if n > ceiling {
        std::iter::once(format!("{n} panic sites, ceiling {ceiling}:")).chain(sites).collect()
    } else if n < ceiling {
        vec![format!("{RULE_FILE}: {n} panic sites, ceiling {ceiling}: lower PANIC_CEILING to {n}")]
    } else {
        Vec::new()
    }
}

// Reachability (ROADMAP aims 2 and 3): model code nothing runs cannot be
// validated. A `pub mod` is an island when no `pub` item it declares (a
// column-0 `pub fn`, `struct`, …, or a re-exported name) is mentioned by
// non-test code outside its own file(s) and its crate's `lib.rs`.

const NON_TEST_ROOTS: &[&str] =
    &["crates/*/src", "crates/*/benches/*.rs", "benchmark/src", "examples", "src"];

/// A file's code as reachability reads it: block then line comments
/// removed, and cut at the first `#[cfg(test)]` that opens a module.
fn reach_code(text: &str) -> String {
    let (mut code, mut rest) = (String::new(), text);
    while let Some((open, end)) =
        rest.find("/*").and_then(|o| Some((o, o + rest[o + 2..].find("*/")? + 4)))
    {
        code.push_str(&rest[..open]);
        rest = &rest[end..];
    }
    code.push_str(rest);
    let lines = code.split_inclusive('\n').map(|l| match l.split_once("//") {
        Some((code, _)) => format!("{code}{}", if l.ends_with('\n') { "\n" } else { "" }),
        None => l.to_string(),
    });
    let code: String = lines.collect();
    let opens_mod = |after: &str| {
        let after = skip_ws(after);
        let Some(rest) = after.strip_prefix("pub") else { return after.starts_with("mod ") };
        let scope = rest.strip_prefix('(').and_then(|r| r.split_once(')'));
        let scope = scope.filter(|(word, _)| !word.is_empty() && word.chars().all(is_word));
        scope.map_or(rest, |(_, r)| r).starts_with(" mod ")
    };
    let cut = code.match_indices("#[cfg(test)]").find(|&(at, m)| opens_mod(&code[at + m.len()..]));
    code[..cut.map_or(code.len(), |(at, _)| at)].to_string()
}

/// Each `pub use <path>::{..};` or `pub use <path>::Name;` at a line start:
/// `(<path>::, the names it brings out)`, `<path>` of word characters and
/// colons.
fn reexports(code: &str) -> Vec<(&str, Vec<&str>)> {
    fn parse(rest: &str) -> Option<(&str, Vec<&str>)> {
        let (path, tail) = rest.split_at(rest.find(|c: char| !(is_word(c) || c == ':'))?);
        if let Some((list, after)) = tail.strip_prefix('{').and_then(|l| l.split_once('}')) {
            let names = list.split(|c: char| !is_word(c)).filter(|w| !w.is_empty()).collect();
            return (path.ends_with("::") && after.starts_with(';')).then_some((path, names));
        }
        let (path, name) = path.split_at(path.rfind("::")? + 2);
        let named = !name.is_empty() && name.chars().all(is_word) && tail.starts_with(';');
        named.then(|| (path, vec![name]))
    }
    let starts =
        code.match_indices("pub use ").filter(|&(at, _)| at == 0 || code[..at].ends_with('\n'));
    starts.filter_map(|(at, m)| parse(&code[at + m.len()..])).collect()
}

/// The names a file's column-0 `pub fn|struct|enum|trait|type|const|static`
/// lines declare.
fn declared(code: &str) -> impl Iterator<Item = &str> {
    const KINDS: &[&str] = &["fn ", "struct ", "enum ", "trait ", "type ", "const ", "static "];
    fn name(rest: &str) -> Option<&str> {
        KINDS.iter().find_map(|kind| rest.strip_prefix(kind)).map(word_at)
    }
    code.lines().filter_map(move |l| name(l.strip_prefix("pub ")?)).filter(|n| !n.is_empty())
}

/// `(islands, quiet)`: each island as `lib.rs:line: pub mod name;`, and
/// the reading aid, the names a `lib.rs` re-exports that only their
/// defining file mentions (a type that only ever appears as a return value
/// shows up).
fn reach(tree: &Tree) -> (Vec<String>, Vec<String>) {
    let non_test = |p: &str| p.ends_with(".rs") && NON_TEST_ROOTS.iter().any(|r| under(p, r));
    let corpus: BTreeMap<&str, String> = tree
        .iter()
        .filter(|(p, _)| non_test(p))
        .map(|(p, t)| (p.as_str(), reach_code(t)))
        .collect();
    let (mut islands, mut quiet) = (Vec::new(), Vec::new());
    for (lib, original) in tree.iter().filter(|(path, _)| under(path, "crates/*/src/lib.rs")) {
        let Some(lib_code) = corpus.get(lib.as_str()) else { continue };
        let src = lib.trim_end_matches("/lib.rs");
        let krate = src.trim_start_matches("crates/").trim_end_matches("/src");
        fn module(line: &str) -> Option<&str> {
            let name = word_at(line.strip_prefix("pub mod ")?);
            (!name.is_empty() && line["pub mod ".len() + name.len()..].starts_with(';'))
                .then_some(name)
        }
        for module in lib_code.lines().filter_map(module) {
            let (file, dir) = (format!("{src}/{module}.rs"), format!("{src}/{module}/"));
            let own = |path: &str| path == file || path.starts_with(&dir);
            let mentioned = |name: &str| {
                let word = format!("\\b{name}\\b");
                let mut others = corpus.iter().filter(|(p, _)| !own(p) && **p != lib.as_str());
                others.any(|(_, text)| hits(text, &word).next().is_some())
            };
            let own_code = corpus.iter().filter(|(p, _)| own(p)).map(|(_, code)| code.as_str());
            let reexported = |code| reexports(code).into_iter().flat_map(|(_, names)| names);
            let items: BTreeSet<&str> =
                own_code.flat_map(|code| declared(code).chain(reexported(code))).collect();
            if !items.iter().any(|name| mentioned(name)) {
                let decl = format!("pub mod {module};");
                let line = original.lines().position(|l| l.starts_with(&decl)).map_or(0, |n| n + 1);
                islands.push(format!("{lib}:{line}: {decl} ({krate}::{module})"));
            }
            let prefix = format!("{module}::");
            let lib_names = reexports(lib_code).into_iter().filter(|(path, _)| *path == prefix);
            for name in lib_names.flat_map(|(_, names)| names).filter(|name| !mentioned(name)) {
                quiet.push(format!("{krate}::{module}::{name}"));
            }
        }
    }
    (islands, quiet)
}

/// The islands, followed on a failure by the reading aid, which a passing
/// run prints instead (`--nocapture` shows it).
fn reachability(tree: &Tree) -> Vec<String> {
    let (mut islands, quiet) = reach(tree);
    let title = "re-exported, mentioned only by the defining file (not a failure):".to_string();
    let aid = std::iter::once(title).chain(quiet.into_iter().map(|name| format!("  {name}")));
    if islands.is_empty() {
        aid.for_each(|line| println!("{line}"));
    } else {
        islands.extend(aid);
    }
    islands
}

// Knob paths (ROADMAP item 25): a knob, a `pub` field of a `pub struct`
// under `crates/*/src` named `*Config` or with a hand-written `impl
// Default`, is live when a struct literal (`Self { .. }` in its impls
// included) or an assignment (`.field = v`, `.field +=`) under the
// KNOB_ROOTS writes it a value other than its `Default` impl's (without
// one: two values). Values compare without whitespace or lowercase module
// paths. An assignment through a field of config type writes that type's
// knob (`cfg.conventional.seed` is `SsdConfig.seed`); any other counts for
// every knob of its name. A dead knob is a constant unless ALLOW says why.

/// `("Struct.field", why the dead knob stays a field)`.
const ALLOW: &[(&str, &str)] = &[];

const KNOB_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];

/// The source without comments (each a space) and with string and char
/// literals emptied (a literal ending in `"` becomes `""`, any other
/// `' '`); the newlines they held stay, so lines keep their numbers.
fn strip(src: &str) -> String {
    let b = src.as_bytes();
    let char_end = |at: usize| at + src[at..].chars().next().map_or(0, char::len_utf8);
    let token_end = |i: usize| -> Option<usize> {
        match (b[i], b.get(i + 1)) {
            (b'/', Some(b'/')) => Some(src[i..].find('\n').map_or(src.len(), |n| i + n)),
            (b'/', Some(b'*')) => src[i + 2..].find("*/").map(|n| i + n + 4),
            (b'r', _) if !ends_in_word(&src[..i]) => {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                let (open, close) = (i + 2 + hashes, format!("\"{}", "#".repeat(hashes)));
                let end = || src[open..].find(&close).map(|n| open + n + close.len());
                (b.get(open - 1) == Some(&b'"')).then(end)?
            }
            (b'"', _) => {
                let mut k = i + 1;
                while k < b.len() && b[k] != b'"' {
                    k = if b[k] == b'\\' { char_end(k + 1) } else { k + 1 };
                }
                (k < b.len()).then_some(k + 1)
            }
            (b'\'', Some(&next)) if next != b'\'' => {
                let close = if next == b'\\' { char_end(i + 2) } else { char_end(i + 1) };
                (b.get(close) == Some(&b'\'')).then_some(close + 1)
            }
            _ => None,
        }
    };
    let (mut out, mut i, mut copied) = (String::with_capacity(src.len()), 0, 0);
    while i < b.len() {
        match token_end(i) {
            Some(end) => {
                out.push_str(&src[copied..i]);
                out.push_str(if b[i] == b'/' {
                    " "
                } else if b[end - 1] == b'"' {
                    "\"\""
                } else {
                    "' '"
                });
                out.extend(src[i..end].matches('\n'));
                (i, copied) = (end, end);
            }
            None => i += 1,
        }
    }
    out + &src[copied..]
}

/// `(body, end)` of the bracket block opened at `start` (all bracket kinds
/// count).
fn block(src: &str, start: usize) -> (&str, usize) {
    let mut depth = 0i64;
    for (i, b) in src.bytes().enumerate().skip(start) {
        depth += match b {
            b'(' | b'[' | b'{' => 1,
            b')' | b']' | b'}' => -1,
            _ => 0,
        };
        if depth == 0 {
            return (&src[start + 1..i], i);
        }
    }
    (&src[start + 1..], src.len())
}

/// The depth-0, comma-separated items of a struct literal's body.
fn items(body: &str) -> Vec<&str> {
    let (mut out, mut depth, mut last) = (Vec::new(), 0i64, 0);
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => out.push(&body[std::mem::replace(&mut last, i + 1)..i]),
            _ => {}
        }
    }
    out.push(&body[last..]);
    out.into_iter().filter(|item| !item.trim().is_empty()).collect()
}

/// An `impl .. Type {` whose header holds no `{` or `;`: just past its `{`,
/// its `}`, and whether it is `impl Default for Type` spelled so, or an
/// impl of `Default` however spelled (`impl<T> Default for`, …).
struct Impl<'s> {
    open: usize,
    end: usize,
    ty: &'s str,
    plain_default: bool,
    default: bool,
}

fn impls(src: &str) -> Vec<Impl<'_>> {
    let mut out = Vec::new();
    for at in hits(src, "\\bimpl\\b") {
        let Some(k) = src[at..].find(['{', ';']).map(|k| k + at) else { continue };
        let header = trim_ws(&src[at + 4..k]);
        let ty = word_before(header);
        let head = &src[at + 4..at + 4 + header.len() - ty.len()];
        if src.as_bytes()[k] == b';' || ty.is_empty() {
            continue;
        }
        let default = trim_ws(head)
            .strip_suffix("for")
            .is_some_and(|h| trim_ws(h).len() < h.len() && word_before(trim_ws(h)) == "Default");
        let spaced = head.starts_with(char::is_whitespace) && head.ends_with(char::is_whitespace);
        let plain_default = spaced && head.split_whitespace().eq(["Default", "for"]);
        out.push(Impl { open: k + 1, end: block(src, k).1, ty, plain_default, default });
    }
    out
}

/// `(field, declared type, offset)` of each `pub field: Type` line of a
/// struct body that starts at `offset`.
fn pub_fields(body: &str, offset: usize) -> Vec<(String, String, usize)> {
    let lines = body
        .split_inclusive('\n')
        .scan(offset, |at, l| Some((std::mem::replace(at, *at + l.len()), l)));
    let field = |(at, line): (usize, &str)| {
        let rest = skip_ws(line).strip_prefix("pub ")?;
        let name = word_at(rest);
        let ty = skip_ws(skip_ws(&rest[name.len()..]).strip_prefix(':')?);
        let ty = &ty[..ty.find(|c: char| !(is_word(c) || c == ':')).unwrap_or(ty.len())];
        (!name.is_empty() && !ty.is_empty()).then(|| (name.to_string(), ty.to_string(), at))
    };
    lines.filter_map(field).collect()
}

/// A written value as compared: no whitespace, no lowercase module path.
fn normal(value: &str) -> String {
    let v: String = value.chars().filter(|c| !c.is_whitespace()).collect();
    let (mut out, mut i) = (String::with_capacity(v.len()), 0);
    while let Some(c) = v[i..].chars().next() {
        let seg = word_at(&v[i..]);
        let next = v[i + seg.len()..].strip_prefix("::").and_then(|r| r.chars().next());
        let lower = seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !ends_in_word(&v[..i])
            && lower
            && (c.is_ascii_lowercase() || c == '_')
            && next.is_some_and(|n| n.is_ascii_alphabetic() || n == '_')
        {
            i += seg.len() + 2;
        } else {
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

/// A literal's field item `name` or `name: value`: `(name, value)`, the
/// value the name itself when it is absent or empty.
fn item(item: &str) -> Option<(&str, &str)> {
    let rest = skip_ws(item);
    let name = word_at(rest);
    let rest = skip_ws(&rest[name.len()..]);
    let value = match rest.strip_prefix(':') {
        Some(value) if !value.starts_with(':') => skip_ws(value),
        _ if rest.is_empty() => "",
        _ => return None,
    };
    (!name.is_empty()).then_some((name, if value.is_empty() { name } else { value }))
}

/// Each assignment `receiver[..].field op= value;`: `(receiver, field,
/// op + value)`.
fn assignments(src: &str) -> Vec<(&str, &str, String)> {
    let (mut out, mut resume, mut in_word) = (Vec::new(), 0, false);
    for (at, c) in src.char_indices() {
        let inside = std::mem::replace(&mut in_word, is_word(c));
        if inside || !is_word(c) || at < resume {
            continue;
        }
        let receiver = word_at(&src[at..]);
        let mut rest = &src[at + receiver.len()..];
        if let Some((_, after)) = rest.strip_prefix('[').and_then(|r| r.split_once(']')) {
            rest = if after.starts_with('.') { after } else { rest };
        }
        let Some(rest) = rest.strip_prefix('.').filter(|r| !word_at(r).is_empty()) else {
            continue;
        };
        let field = word_at(rest);
        let rest = skip_ws(&rest[field.len()..]);
        let op = rest.strip_prefix(['-', '+', '*', '/']).filter(|r| r.starts_with('='));
        let op = op.map_or("", |_| &rest[..1]);
        let Some(value) = rest[op.len()..].strip_prefix('=').filter(|r| !r.starts_with('=')) else {
            continue;
        };
        let value = skip_ws(value);
        let Some(end) = value.find(';') else { continue };
        out.push((receiver, field, format!("{op}{}", normal(&value[..end]))));
        resume = src.len() - value.len() + end + 1;
    }
    out
}

/// A knob's verdict: `Struct.field`, the values written (its default among
/// them) and its declaration's `path:line`.
struct Knob {
    name: String,
    live: bool,
    values: Vec<String>,
    at: String,
}

fn knob_verdicts(tree: &Tree) -> Vec<Knob> {
    let rust = |p: &str| p.ends_with(".rs") && KNOB_ROOTS.iter().any(|r| under(p, r));
    let srcs: Vec<(&str, String)> =
        tree.iter().filter(|(p, _)| rust(p)).map(|(p, t)| (p.as_str(), strip(t))).collect();
    let crate_srcs = srcs.iter().filter(|(path, _)| under(path, "crates/*/src"));
    let plain_impls = crate_srcs.clone().flat_map(|(_, src)| impls(src));
    let defaulted: BTreeSet<&str> = plain_impls.filter(|i| i.plain_default).map(|i| i.ty).collect();
    // Struct -> its `(field, type, path:line)`s; a later declaration of a
    // name replaces an earlier one.
    let mut structs: BTreeMap<&str, Vec<(String, String, String)>> = BTreeMap::new();
    for (path, src) in crate_srcs {
        for at in hits(src, "\\bpub struct ").map(|at| at + "pub struct ".len()) {
            let name = word_at(&src[at..]);
            let brace = src.len() - skip_ws(&src[at + name.len()..]).len();
            if name.is_empty() || !src[brace..].starts_with('{') {
                continue;
            }
            if name.ends_with("Config") || defaulted.contains(name) {
                let mut fields: Vec<(String, String, String)> = Vec::new();
                for (field, ty, at) in pub_fields(block(src, brace).0, brace + 1) {
                    match fields.iter_mut().find(|f| f.0 == field) {
                        Some(f) => f.1 = ty,
                        None => fields.push((field, ty, format!("{path}:{}", line_of(src, at).0))),
                    }
                }
                structs.insert(name, fields);
            }
        }
    }
    let has =
        |name: &str, field: &str| structs.get(name).is_some_and(|f| f.iter().any(|f| f.0 == field));
    // Knobs by field name, and the config types a field of config type holds.
    let (mut by_name, mut nested) = (BTreeMap::<&str, BTreeSet<&str>>::new(), BTreeMap::new());
    for (&name, fields) in &structs {
        for (field, ty, _) in fields {
            by_name.entry(field.as_str()).or_default().insert(name);
            if let Some((&ty, _)) =
                structs.get_key_value(ty.rsplit("::").next().unwrap_or_default())
            {
                nested.entry(field.as_str()).or_insert_with(BTreeSet::new).insert(ty);
            }
        }
    }
    let mut written = BTreeMap::<(&str, &str), BTreeSet<String>>::new();
    let mut default = BTreeMap::new();
    for (_, src) in &srcs {
        let impls = impls(src);
        // A literal is `(path::)*Name {` starting after neither a word
        // character nor a `>`, and not after `struct`, `impl`, `for`,
        // `enum` or `->`.
        for (brace, _) in src.match_indices('{') {
            let head = trim_ws(&src[..brace]);
            let name = word_before(head);
            if name != "Self" && !structs.contains_key(name) {
                continue;
            }
            let path = |&at: &usize| {
                let word = src[..at].strip_suffix("::").map(word_before)?;
                (!word.is_empty()).then(|| at - word.len() - 2)
            };
            let starts: Vec<usize> =
                std::iter::successors(Some(head.len() - name.len()), path).collect();
            let open = |&at: &usize| !ends_in_word(&src[..at]) && !src[..at].ends_with('>');
            let after_keyword = |&at: &usize| {
                let before = trim_ws(&src[..at]);
                ["struct", "impl", "for", "enum"].contains(&word_before(before))
                    || before.ends_with("->")
            };
            let Some(at) = starts.into_iter().rev().find(open).filter(|at| !after_keyword(at))
            else {
                continue;
            };
            let target = impls.iter().rfind(|i| i.open <= at && i.end > at);
            let name = match (name, target) {
                ("Self", Some(i)) if structs.contains_key(i.ty) => i.ty,
                ("Self", _) => continue,
                _ => name,
            };
            let in_default = target.is_some_and(|i| i.default && i.ty == name);
            for (field, value) in items(block(src, brace).0).into_iter().filter_map(item) {
                if !has(name, field) {
                    continue;
                } else if in_default {
                    default.insert((name, field), normal(value));
                } else {
                    written.entry((name, field)).or_default().insert(normal(value));
                }
            }
        }
        for (receiver, field, value) in assignments(src) {
            let Some(named) = by_name.get(field) else { continue };
            for &name in nested.get(receiver).unwrap_or(named).intersection(named) {
                written.entry((name, field)).or_default().insert(value.clone());
            }
        }
    }
    let mut knobs = Vec::new();
    for (&name, fields) in &structs {
        for (field, _, at) in fields {
            let mut values = written.remove(&(name, field.as_str())).unwrap_or_default();
            let default = default.get(&(name, field.as_str()));
            let live = default.map_or(values.len() > 1, |d| values.iter().any(|v| v != d));
            values.extend(default.cloned());
            let (name, values) = (format!("{name}.{field}"), values.into_iter().collect());
            knobs.push(Knob { name, live, values, at: at.clone() });
        }
    }
    knobs
}

/// The rule's failures over `tree` with `allow` as ALLOW, and the verdicts.
fn knob_failures(tree: &Tree, allow: &[&str]) -> (Vec<String>, Vec<Knob>) {
    let knobs = knob_verdicts(tree);
    let dead = knobs.iter().filter(|k| !k.live && !allow.contains(&k.name.as_str()));
    let dead =
        dead.map(|k| format!("{}: dead knob, not in ALLOW (make it a const): {}", k.at, k.name));
    let mut failures: Vec<String> = dead.collect();
    for entry in allow {
        let stale = |at: &str, why: &str| format!("{at}: ALLOW: stale entry, {why}: {entry}");
        match knobs.iter().find(|k| k.name == *entry) {
            None => failures.push(stale(RULE_FILE, "no such knob")),
            Some(k) if k.live => failures.push(stale(&k.at, "some caller sets it")),
            Some(_) => {}
        }
    }
    (failures, knobs)
}

/// The rule with [`ALLOW`]. It prints every knob and the values written
/// to it (`--nocapture` shows them).
fn knob_paths(tree: &Tree) -> Vec<String> {
    let allow: Vec<&str> = ALLOW.iter().map(|(knob, _)| *knob).collect();
    let (failures, knobs) = knob_failures(tree, &allow);
    for k in &knobs {
        println!("{}  {}  {}", if k.live { "live" } else { "DEAD" }, k.name, k.values.join(" | "));
    }
    failures
}

/// The rules that are functions: `(name, origin, rule, failure text)`.
type Check = fn(&Tree) -> Vec<String>;

#[rustfmt::skip]
const CHECKS: &[(&str, &str, Check, &str)] = &[
    ("no clock nudges", "PERFORMANCE.md rule 2", clock_nudges,
        "a next_event_after(..) / next_(flush_)completion_at(..) result is replaced by a fallback instant, or an event is scheduled a fixed quantum ahead."),
    ("one latency copy", "PERFORMANCE.md rule 10", one_latency_copy,
        "crates/memdb/src/runner.rs declares more than one SampleSeries field, or a per-sample tag (a Vec<u8> field)."),
    ("CHANGES.md lines stay short", "ROADMAP item 9", changes_lines_stay_short,
        "a CHANGES.md line is longer than 1024 bytes; put the detail in docs/perf-log."),
    ("goldens-only results", "ROADMAP item 24", results_hold_only_goldens,
        "results/ tracks a file that is not a *.json golden."),
    ("panic-site ratchet", "ROADMAP item 5c", |tree| ratchet(tree, PANIC_CEILING),
        "the panic sites under crates/*/src outside tests differ from PANIC_CEILING."),
    ("reachability", "ROADMAP aims 2 and 3", reachability,
        "no non-test code outside these modules mentions anything they declare. Run the module from a gated harness, a benchmark workload or an example, or delete it."),
    ("knob paths", "ROADMAP item 25", knob_paths,
        "a config field is set by no caller (make it a const) or an ALLOW entry is stale."),
];

#[test]
fn the_tree_breaks_no_rule() {
    let tree = read_tree(Path::new(env!("CARGO_MANIFEST_DIR")));
    let rows = RULES.iter().map(|rule| (rule.name, rule.origin, check(rule, &tree), rule.fail));
    let checks = CHECKS.iter().map(|&(name, origin, rule, fail)| (name, origin, rule(&tree), fail));
    let failed = rows.chain(checks).filter(|(_, _, found, _)| !found.is_empty());
    let report = |(name, origin, found, fail): (&str, &str, Vec<String>, &str)| {
        format!("{name} ({origin}):\n  {}\nFAIL: {fail}", found.join("\n  "))
    };
    let report: Vec<String> = failed.map(report).collect();
    assert!(report.is_empty(), "{}", report.join("\n"));
}

// Fixtures: each rule reports a planted violation by `path:line`.

fn tree(files: &[(&str, &str)]) -> Tree {
    files.iter().map(|(path, text)| (path.to_string(), text.to_string())).collect()
}

fn reports(found: &[String], at: &str) -> bool {
    found.iter().any(|f| f.starts_with(&format!("{at}:")))
}

/// Each finding's `path:line`.
fn places(found: Vec<String>) -> Vec<String> {
    found.iter().map(|f| f.split(": ").next().unwrap_or_default().to_string()).collect()
}

#[test]
fn every_row_reports_each_needle_under_each_root() {
    for rule in RULES {
        for root in rule.roots {
            assert!(TOPS.iter().any(|top| under(root, top)), "{root} is not read");
            // A file under the root: the root itself when it names one file.
            let path = root.trim_end_matches('/').replace("/*/", "/x/").replace("*.rs", "a.rs");
            let path = if path.ends_with(".rs") { path } else { format!("{path}/planted.rs") };
            for needle in rule.needles {
                let spelled = needle.trim_start_matches("\\b").trim_end_matches("\\b");
                let spelled = spelled.replace(" *", "  ");
                let text =
                    format!("fn a() {{}}\nlet _ = x {spelled} y;\n#[cfg(test)]\n{spelled}\n");
                let found = check(rule, &tree(&[(&path, &text)]));
                let (name, tail) = (rule.name, reports(&found, &format!("{path}:4")));
                assert!(reports(&found, &format!("{path}:2")), "{name}: {needle} at {path}");
                assert_eq!(tail, !rule.live, "{name}: the tests of {path}");
                for spared in [RULE_FILE, "docs/planted.rs"].iter().chain(rule.exempt) {
                    assert!(check(rule, &tree(&[(spared, &text)])).is_empty(), "{name}: {spared}");
                }
            }
        }
    }
}

#[test]
fn a_word_needle_ends_at_a_word_boundary() {
    let found = |name: &str, path: &str, line: &str| {
        let rule = RULES.iter().find(|r| r.name == name).expect("a row of that name");
        !check(rule, &tree(&[(path, line)])).is_empty()
    };
    let (lib, storage) = ("crates/a/src/lib.rs", "crates/memdb/src/storage.rs");
    assert!(!found("no unsafe code", lib, "#![forbid(unsafe_code)]"));
    assert!(found("no unsafe code", lib, "unsafe { x }"));
    assert!(!found("fixed hardware constants", "crates/a/Cargo.toml", "NtbConfigs"));
    assert!(found("fixed hardware constants", "crates/a/Cargo.toml", "x = NtbConfig"));
    assert!(!found("one log per device", lib, "struct Lanes {"));
    assert!(found("one log per device", lib, "struct Lane {"));
    assert!(!found("no second path without a caller", "src/lib.rs", "PcieLink::new(cfg)"));
    assert!(found("no second path without a caller", "src/lib.rs", "Link::new_wire(cfg)"));
    assert!(!found("no second path without a caller", "src/lib.rs", "use simkit::Links;"));
    assert!(found("one copy per stored row", storage, "Index<Key,Row>"));
    assert!(!found("one hasher for the device maps", "crates/ssd/src/ftl/map.rs", "HashMap"));
    assert!(!found("one CMB intake", "crates/core/tests/cmb.rs", "x.chunks(64)"));
}

#[test]
fn the_function_rules_report_planted_violations() {
    let (lib, runner) = ("crates/a/src/lib.rs", "crates/memdb/src/runner.rs");
    let nudges = "fn a() {\n\
        let t = q.next_event_after(now).unwrap_or(now + step);\n\
        let Some(t) = q.next_event_after(now) else { panic!() };\n\
        let t = wal.next_flush_completion_at().unwrap_or_else(|| now + from_micros(10));\n\
        self.schedule(at + SimDuration::from_micros(1), ev);\n\
        self.schedule(at, ev); let d = SimDuration::from_micros(1);\n}\n";
    let found = places(clock_nudges(&tree(&[(lib, nudges)])));
    assert_eq!(found, [format!("{lib}:2"), format!("{lib}:4"), format!("{lib}:5")]);

    let one = "struct O {\n    series: SampleSeries,\n    kinds: Vec<Block>,\n}\n\
        #[cfg(test)]\nstruct R {\n    kinds: Vec<SampleSeries>,\n}\n";
    assert!(one_latency_copy(&tree(&[(runner, one)])).is_empty());
    let two = one.replace("kinds: Vec<Block>", "pub kinds: Vec<SampleSeries>");
    let found = places(one_latency_copy(&tree(&[(runner, &two)])));
    assert_eq!(found, [format!("{runner}:2"), format!("{runner}:3")]);
    let tag = one.replace("kinds: Vec<Block>", "tags: Vec<u8>");
    assert_eq!(places(one_latency_copy(&tree(&[(runner, &tag)]))), [format!("{runner}:3")]);

    let changes = format!("{}\n{}\n", "a".repeat(1024), "b".repeat(1025));
    let found = changes_lines_stay_short(&tree(&[("CHANGES.md", &changes)]));
    assert_eq!(found, ["CHANGES.md:2: 1025 bytes"]);
    let results = tree(&[("results/fig09.json", "{}"), ("results/fig09.txt", "")]);
    assert_eq!(results_hold_only_goldens(&results), ["results/fig09.txt:1: not a *.json golden"]);

    // The ratchet is exact: a site under it fails as surely as one over it.
    let sites = "fn a() {\n    x.unwrap(); y.expect(\"why\");\n    z.unwrap_or(0);\n\
        unreachable!(\"no\");\n}\n#[cfg(test)]\nfn t() { panic!(\"test\") }\n";
    let t =
        tree(&[(lib, sites), ("crates/a/tests/t.rs", "panic!()"), ("crates/a/src/x", "panic!(")]);
    let found = places(panic_sites(&t));
    assert_eq!(found, [format!("{lib}:2"), format!("{lib}:2"), format!("{lib}:4")]);
    assert!(ratchet(&t, 3).is_empty());
    let above = ratchet(&t, 2);
    assert!(above[0] == "3 panic sites, ceiling 2:" && reports(&above, &format!("{lib}:4")));
    let below = "tests/structure.rs: 3 panic sites, ceiling 4: lower PANIC_CEILING to 3";
    assert_eq!(ratchet(&t, 4), [below]);
}

#[test]
fn an_island_module_is_reported() {
    let lib = "//! A.\npub mod used;\npub mod island;\npub use island::{Lonely, Quiet};\n";
    let island = "pub struct Lonely;\npub struct Quiet;\n#[cfg(test)]\nmod tests {}\n";
    let other = "// Lonely\n/* Lonely\n */\n#[cfg(test)]\nmod tests { fn t() { Lonely; } }\n";
    let t = tree(&[
        ("crates/a/src/lib.rs", lib),
        ("crates/a/src/used.rs", "pub fn helper() {}\n"),
        ("crates/a/src/island.rs", island),
        ("crates/b/src/lib.rs", other),
        ("crates/b/tests/t.rs", "use a::Lonely;\n"),
        ("examples/x.rs", "fn main() { a::used::helper(); }\n"),
    ]);
    let found = reachability(&t);
    assert!(reports(&found, "crates/a/src/lib.rs:3"), "{found:?}");
    assert!(!found.iter().any(|f| f.contains("a::used")), "{found:?}");
    assert!(found.contains(&"  a::island::Lonely".to_string()), "the reading aid: {found:?}");
    let reached = [t, tree(&[("examples/y.rs", "fn main() { let _ = a::Lonely; }\n")])].concat();
    assert!(reachability(&reached).is_empty());
}

const KNOB_FIXTURE: &str = "
/// A planted configuration: a test sets `rate`; `depth` is the planted field.
pub struct DemoConfig {
    pub rate: f64,
    pub depth: u32,
}

impl Default for DemoConfig {
    fn default() -> Self { DemoConfig { rate: 0.5, depth: 4 } }
}

/// Planted defaults under a name that does not end in `Config`.
pub struct DemoCosts {
    pub setup: u32,
}

impl Default for DemoCosts {
    fn default() -> Self { DemoCosts { setup: 7 } }
}

/// A plain record, no `Default` impl: not scanned, so never dead.
pub struct DemoReport {
    pub count: u32,
}
";

/// The knob rule over a tree whose test sets `DemoConfig.depth` and
/// `DemoCosts.setup` to `depth` and `setup`: `(failures, knobs, dead)`.
fn knob_case(depth: u32, setup: u32, allow: &[&str]) -> (Vec<String>, usize, usize) {
    let test = format!(
        "// DemoConfig {{ depth: 9 }} in a comment is no write.\nfn planted() {{\n\
         let mut c = DemoConfig {{ rate: 0.25, ..DemoConfig::default() }};\n\
         c.depth = {depth};\nlet costs = DemoCosts {{ setup: {setup} }};\n}}\n"
    );
    let t = tree(&[("crates/demo/src/lib.rs", KNOB_FIXTURE), ("tests/demo.rs", &test)]);
    let (failures, knobs) = knob_failures(&t, allow);
    (failures, knobs.len(), knobs.iter().filter(|k| !k.live).count())
}

#[test]
fn the_knob_rule_reports_each_planted_case() {
    let lib = "crates/demo/src/lib.rs";
    let dead = |line, knob| {
        vec![format!("{lib}:{line}: dead knob, not in ALLOW (make it a const): {knob}")]
    };
    assert_eq!(knob_case(4, 8, &[]), (dead(5, "DemoConfig.depth"), 3, 1), "set to its default");
    assert_eq!(knob_case(8, 8, &[]), (vec![], 3, 0), "the planted fields set by a caller");
    assert_eq!(knob_case(8, 7, &[]), (dead(14, "DemoCosts.setup"), 3, 1), "non-Config defaults");
    assert_eq!(knob_case(4, 8, &["DemoConfig.depth"]), (vec![], 3, 1), "a dead knob in ALLOW");
    let stale = format!("{lib}:5: ALLOW: stale entry, some caller sets it: DemoConfig.depth");
    assert_eq!(knob_case(8, 8, &["DemoConfig.depth"]).0, [stale], "a stale ALLOW entry");
    let gone = "tests/structure.rs: ALLOW: stale entry, no such knob: DemoConfig.gone";
    assert_eq!(knob_case(8, 8, &["DemoConfig.gone"]).0, [gone], "an ALLOW entry for no knob");
}
