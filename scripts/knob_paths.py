#!/usr/bin/env python3
"""Every configuration field earns its place: some caller sets it.

    knob_paths.py              the gate (scripts/check.sh): exit 1 on a dead
                               knob ALLOW does not list, or on a stale entry
    knob_paths.py --list       every knob with the values written
    knob_paths.py --self-test  the gate over fixture trees (scripts/check.sh)

A *knob* is a `pub` field of a `pub struct` declared under `crates/*/src`
whose name ends in `Config` or that has a hand-written `impl Default`
there (a struct of defaults is a configuration whatever its name). It is
*live* when some write gives it a value other than
its default: a struct literal (`Name { field: value, .. }`, `Self { .. }`
inside the struct's impls) or an assignment (`.field = value`, `.field +=`)
anywhere under crates/, src/, tests/, examples/ or benchmark/ — presets,
tests, harnesses and the benchmark all count. The default is the value
the struct's `Default` impl writes; a struct without one is live in a field
that is written with two different values. Values compare as text with
whitespace removed, so `from_micros(100)` restating the default is not a
second value, and module paths are dropped (`crate::tlp::Tlp` is `Tlp`). An
assignment through a config's field of config type writes that type's knob
(`cfg.conventional.seed = ..` is `SsdConfig.seed`); any other counts for
every knob of its name, the gate not knowing the receiver's type, so it
errs towards live.

A knob that no caller sets is dead: its value is a constant, and belongs
in a named `const` with its source beside the code that reads it. The
gate fails on a dead knob unless ALLOW gives a reason, and on an ALLOW
entry that is live or no longer declared (the reason no longer holds).
"""
import argparse
import glob
import os
import re
import sys
from collections import defaultdict

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCANNED = ("crates", "src", "tests", "examples", "benchmark")

# "Struct.field" -> why the dead knob stays a field.
ALLOW = {}

STRUCT = re.compile(r"\bpub struct (\w+)\s*\{")
DEFAULT_IMPL = re.compile(r"\bimpl\s+Default\s+for\s+(\w+)\s*\{")
PUB_FIELD = re.compile(r"^\s*pub (\w+)\s*:\s*([\w:]+)", re.M)
IMPL = re.compile(r"\bimpl\b([^{;]*?)\b(\w+)\s*\{")
ASSIGN = re.compile(r"(\w+)(?:\[[^\]]*\])?\.(\w+)\s*([-+*/]?)=(?!=)\s*([^;]*);")
ITEM = re.compile(r"^\s*(\w+)\s*(?::(?!:)\s*(.*))?$", re.S)
TOKEN = re.compile(
    r"//[^\n]*"  # line comment
    r"|/\*.*?\*/"  # block comment
    r'|\br(#*)".*?"\1'  # raw string
    r'|"(?:\\.|[^"\\])*"'  # string
    r"|'(?:\\.|[^'\\])'",  # char literal (a lifetime does not close)
    re.S,
)


def strip(src):
    """The source without comments, and with string and char literals emptied."""

    def blank(m):
        text = m.group(0)
        return " " if text.startswith("/") else '""' if text.endswith('"') else "' '"

    return TOKEN.sub(blank, src)


def block(src, start):
    """`(body, end)` of the brace block whose `{` is at `start`."""
    depth = 0
    for i in range(start, len(src)):
        if src[i] in "([{":
            depth += 1
        elif src[i] in ")]}":
            depth -= 1
            if depth == 0:
                return src[start + 1 : i], i
    return src[start + 1 :], len(src)


def items(body):
    """The depth-0, comma-separated items of a struct literal's body."""
    out, depth, last = [], 0, 0
    for i, c in enumerate(body):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            out.append(body[last:i])
            last = i + 1
    out.append(body[last:])
    return [item for item in out if item.strip()]


def sources(root):
    """`{path: stripped source}` of every `.rs` file under the scanned trees."""
    out = {}
    for top in SCANNED:
        for name in glob.glob(os.path.join(root, top, "**", "*.rs"), recursive=True):
            if os.sep + "target" + os.sep in name:
                continue
            with open(name) as f:
                out[os.path.relpath(name, root)] = strip(f.read())
    return out


def knobs(srcs):
    """`{struct: {pub field: declared type}}` for every `pub struct` under
    crates/*/src named `*Config` or with a hand-written `impl Default`."""
    crate_srcs = [
        src
        for path, src in srcs.items()
        if re.match(r"crates/[^/]+/src/", path.replace(os.sep, "/"))
    ]
    defaulted = {m.group(1) for src in crate_srcs for m in DEFAULT_IMPL.finditer(src)}
    out = {}
    for src in crate_srcs:
        for m in STRUCT.finditer(src):
            if m.group(1).endswith("Config") or m.group(1) in defaulted:
                body, _ = block(src, m.end() - 1)
                out[m.group(1)] = dict(PUB_FIELD.findall(body))
    return out


def normal(value):
    """A written value as compared: no whitespace, no module path."""
    return re.sub(r"\b[a-z_][a-z0-9_]*::(?=[a-zA-Z_])", "", re.sub(r"\s+", "", value))


def impl_target(src, at):
    """`(type, is the Default impl)` of the innermost `impl` block enclosing
    offset `at`, or `(None, False)`."""
    target = (None, False)
    for m in IMPL.finditer(src, 0, at):
        _, end = block(src, m.end() - 1)
        if end > at:
            target = (m.group(2), re.search(r"\bDefault\s+for\s*$", m.group(1)) is not None)
    return target


def writes(srcs, structs):
    """`(written, default)`: the values written per `(struct, field)` by
    literals outside the `Default` impl and by assignments, and the value
    the `Default` impl writes."""
    written, default = defaultdict(set), {}
    names = "|".join(sorted(structs))
    lit = re.compile(r"(?<![\w>])(?:\w+::)*(" + names + r"|Self)\s*\{")
    # Fields of config type, by name: `cfg.conventional.seed = ..` writes
    # `SsdConfig.seed` only.
    nested = defaultdict(set)
    for fields in structs.values():
        for field, ty in fields.items():
            if ty.split("::")[-1] in structs:
                nested[field].add(ty.split("::")[-1])
    by_name = defaultdict(set)
    for name, fields in structs.items():
        for field in fields:
            by_name[field].add(name)
    for src in srcs.values():
        for m in lit.finditer(src):
            before = src[: m.start()].rstrip()
            if re.search(r"(\bstruct|\bimpl|\bfor|->|\benum)$", before):
                continue
            name = m.group(1)
            target, in_default = impl_target(src, m.start())
            if name == "Self":
                name = target
                if name not in structs:
                    continue
            in_default = in_default and target == name
            body, _ = block(src, m.end() - 1)
            for item in items(body):
                field = ITEM.match(item)
                if not field or field.group(1) not in structs[name]:
                    continue
                value = normal(field.group(2) or field.group(1))
                if in_default:
                    default[(name, field.group(1))] = value
                else:
                    written[(name, field.group(1))].add(value)
        for m in ASSIGN.finditer(src):
            receiver, field, op, value = m.groups()
            for name in nested.get(receiver, by_name[field]) & by_name[field]:
                written[(name, field)].add(op + normal(value))
    return written, default


def verdicts(root):
    """`{"Struct.field": (live, values written)}` for every knob."""
    srcs = sources(root)
    structs = knobs(srcs)
    written, default = writes(srcs, structs)
    out = {}
    for name, fields in sorted(structs.items()):
        for field in fields:
            values = written[(name, field)]
            if (name, field) in default:
                live = bool(values - {default[(name, field)]})
                values.add(default[(name, field)])
            else:
                live = len(values) > 1
            out[f"{name}.{field}"] = (live, sorted(values))
    return out


def gate(root, allow):
    """The gate's failures over the tree at `root` with `allow` as ALLOW."""
    knob = verdicts(root)
    dead = sorted(k for k, (live, _) in knob.items() if not live)
    failures = [f"dead knob, not in ALLOW (make it a const): {k}" for k in dead if k not in allow]
    for k in sorted(allow):
        if k not in knob:
            failures.append(f"stale entry, no such knob: {k}")
        elif knob[k][0]:
            failures.append(f"stale entry, some caller sets it: {k}")
    for line in failures:
        print(f"  ! {line}")
    print(f"knob paths: {len(knob)} knobs, {len(dead)} dead, {len(failures)} failures")
    return 1 if failures else 0


FIXTURE_CONFIG = """
/// A planted configuration.
pub struct DemoConfig {
    /// Set by a test to another value: live.
    pub rate: f64,
    /// The planted field.
    pub depth: u32,
}

impl Default for DemoConfig {
    fn default() -> Self {
        DemoConfig { rate: 0.5, depth: 4 }
    }
}

/// Planted defaults under a name that does not end in `Config`.
pub struct DemoCosts {
    /// The second planted field.
    pub setup: u32,
}

impl Default for DemoCosts {
    fn default() -> Self {
        DemoCosts { setup: 7 }
    }
}

/// A plain record, no `Default` impl: not scanned, so never dead.
pub struct DemoReport {
    pub count: u32,
}
"""


def self_test():
    """The gate as a process over a fixture tree whose `DemoConfig.depth` and
    `DemoCosts.setup` a test sets to `depth` and `setup`: exit 1 when either
    is its default, 0 when neither is or ALLOW lists the dead knob, 1 again
    with a stale ALLOW entry."""
    import subprocess
    import tempfile

    def run(depth, setup, *allow):
        with tempfile.TemporaryDirectory() as root:
            for path, text in {
                "crates/demo/src/lib.rs": FIXTURE_CONFIG,
                "tests/demo.rs": f"""
                    // DemoConfig {{ depth: 9 }} in a comment is no write.
                    fn planted() {{
                        let mut c = DemoConfig {{ rate: 0.25, ..DemoConfig::default() }};
                        c.depth = {depth};
                        let costs = DemoCosts {{ setup: {setup} }};
                    }}
                """,
            }.items():
                os.makedirs(os.path.dirname(os.path.join(root, path)), exist_ok=True)
                with open(os.path.join(root, path), "w") as f:
                    f.write(text)
            args = [sys.executable, __file__, "--root", root]
            for k in allow:
                args += ["--allow", k]
            return subprocess.run(args, capture_output=True, text=True)

    cases = [
        ("planted field set only to its default", run(4, 8), 1, "dead knob, not in ALLOW"),
        ("planted fields set by a caller", run(8, 8), 0, "3 knobs, 0 dead, 0 failures"),
        ("non-Config defaults set to them", run(8, 7), 1, "(make it a const): DemoCosts.setup"),
        ("dead knob with an ALLOW entry", run(4, 8, "DemoConfig.depth"), 0, "1 dead, 0 failures"),
        ("stale ALLOW entry", run(8, 8, "DemoConfig.depth"), 1, "stale entry, some caller"),
        ("ALLOW entry for no knob", run(8, 8, "DemoConfig.gone"), 1, "stale entry, no such knob"),
    ]
    for what, got, code, says in cases:
        assert got.returncode == code and says in got.stdout, (what, got.returncode, got.stdout)
    print(f"knob paths self-test: {len(cases)} fixture runs as expected")
    return 0


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--list", action="store_true", help="every knob and the values written")
    cli.add_argument("--self-test", action="store_true", help="the gate over fixture trees")
    cli.add_argument("--root", default=ROOT, help="scan this tree (default: the repository)")
    cli.add_argument("--allow", action="append", help="ALLOW only this knob (fixture runs)")
    args = cli.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.list:
        for k, (live, values) in verdicts(args.root).items():
            print(f"{'live' if live else 'DEAD'}  {k}  {' | '.join(values)}")
        sys.exit(0)
    allow = ALLOW if args.allow is None else {k: "fixture" for k in args.allow}
    sys.exit(gate(args.root, allow))
