#!/usr/bin/env python3
"""Explain what moved between two `results/*.json` documents, and gate on it.

    results_diff.py OLD NEW          what moved (files or directories)
    results_diff.py --gate OLD NEW   the same report; exit 1 unless NEW only adds
    results_diff.py --self-test      the gate rule against synthetic documents

The rule (`scripts/check_results.sh`, docs/HARNESSES.md): `schema`, `name`
and `rows` are equal exactly; under `telemetry` every label and path OLD
holds is present in NEW with the identical value. Paths only NEW holds are
allowed and listed, so a new metric needs no golden edit. Whatever else
differs is a simulated value that moved: telemetry paths are grouped by layer
prefix (`core.cmb`, `pcie.host_link`, …), largest relative change first.
"""
import contextlib
import io
import json
import os
import re
import sys
from collections import defaultdict

DEVICE = re.compile(r"^dev\d+\.")
KINDS = ("changed rows", "removed paths", "changed values", "added paths")


def same(a, b):
    """Equal as JSON: 1 and 1.0 differ, object key order does not matter."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def leaves(telemetry):
    """`{(label, path): number}`; a latency summary is one leaf per field."""
    out = {}
    for label, metrics in telemetry.items():
        for path, value in metrics.items():
            if isinstance(value, dict):
                for field, v in value.items():
                    out[label, f"{path}.{field}"] = v
            else:
                out[label, path] = value
    return out


def layer(path):
    """`dev1.core.transport.flow0.busy_ns` -> `core.transport`."""
    parts = DEVICE.sub("", path).split(".")
    return ".".join(parts[: min(2, len(parts) - 1)] or parts)


def relative(old, new):
    return abs(new - old) / abs(old) if old else float("inf")


def compare(old, new):
    """`(failures, added)`: `(kind, line)` for what the gate rejects — kind is
    one of `KINDS` — and the `(label, path)` pairs only `new` holds."""
    failures = []
    for key in ("schema", "name"):
        if not same(old.get(key), new.get(key)):
            failures.append(("changed rows", f"{key}: {old.get(key)!r} -> {new.get(key)!r}"))
    rows_old, rows_new = old.get("rows", []), new.get("rows", [])
    if len(rows_old) != len(rows_new):
        failures.append(("changed rows", f"rows: {len(rows_old)} -> {len(rows_new)} rows"))
    for i, (a, b) in enumerate(zip(rows_old, rows_new)):
        for field in sorted(a.keys() | b.keys()):
            if not same(a.get(field), b.get(field)):
                where = f"rows[{i}] ({a.get('series')}, x={a.get('x')}) {field}"
                failures.append(("changed rows", f"{where}: {a.get(field)!r} -> {b.get(field)!r}"))
    tele_old, tele_new = old.get("telemetry", {}), new.get("telemetry", {})
    for label in tele_old.keys() - tele_new.keys():
        failures.append(("removed paths", f"telemetry label removed: {label}"))
    before, after = leaves(tele_old), leaves(tele_new)
    moved = defaultdict(list)
    for (label, path), value in before.items():
        if label not in tele_new:
            continue
        if (label, path) not in after:
            failures.append(("removed paths", f"telemetry path removed: {label} {path}"))
        elif not same(value, after[label, path]):
            moved[layer(path)].append((relative(value, after[label, path]), label, path))
    for group in sorted(moved.values(), key=max, reverse=True):
        for rel, label, path in sorted(group, reverse=True):
            line = f"{label} {path}: {before[label, path]} -> {after[label, path]} ({rel:+.2%})"
            failures.append(("changed values", f"telemetry value moved: {line}"))
    return failures, sorted(after.keys() - before.keys())


def report(name, failures, added):
    """Print one document's verdict; added paths by layer, each with how many
    (label, device) places hold it."""
    print(f"== {name}: {len(failures)} changed or removed, {len(added)} added")
    for _kind, line in failures:
        print(f"  ! {line}")
    places = defaultdict(int)
    for _label, path in added:
        places[DEVICE.sub("", path)] += 1
    by_layer = defaultdict(list)
    for path in sorted(places):
        by_layer[layer(path)].append(path)
    for prefix, paths in sorted(by_layer.items()):
        print(f"  + {prefix}: {len(paths)} paths")
        for path in paths:
            print(f"      {path}  (x{places[path]})")


def load(path):
    with open(path) as f:
        return json.load(f)


def main(old_path, new_path, gate):
    if os.path.isdir(old_path):
        old, new = (
            {n: load(os.path.join(d, n)) for n in os.listdir(d) if n.endswith(".json")}
            for d in (old_path, new_path)
        )
    else:
        name = os.path.basename(new_path)
        old, new = {name: load(old_path)}, {name: load(new_path)}
    tally = dict.fromkeys(KINDS, 0)
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            failures, added = [("removed paths", f"missing from {new_path}")], []
        elif name not in old:
            failures, added = [("changed rows", f"no counterpart in {old_path}")], []
        else:
            failures, added = compare(old[name], new[name])
        report(name, failures, added)
        for kind, _line in failures:
            tally[kind] += 1
        tally["added paths"] += len(added)
    print(f"{len(old)} documents: " + ", ".join(f"{n} {kind}" for kind, n in tally.items()))
    return 1 if gate and sum(tally.values()) > tally["added paths"] else 0


def self_test():
    """An added path passes and is listed; a changed value, a removed path, a
    removed label and a changed row each fail and name what changed."""
    base = {
        "schema": "xssd-results/v1",
        "name": "t",
        "rows": [{"series": "s", "x": 1.0, "y": 2.5}],
        "telemetry": {
            "a": {"db.commits": 7, "db.lat": {"count": 2, "mean_us": 1.5}},
            "b": {"dev0.core.cmb.lane0.bytes_in": 64},
        },
    }

    def edited(edit):
        doc = json.loads(json.dumps(base))
        edit(doc)
        return compare(base, doc)

    assert edited(lambda d: None) == ([], [])
    failures, added = edited(lambda d: d["telemetry"]["a"].update({"core.port.submitted": 0}))
    assert failures == [] and added == [("a", "core.port.submitted")], (failures, added)
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        report("t", failures, added)
    assert "0 changed or removed, 1 added" in listing.getvalue(), listing.getvalue()
    assert "core.port.submitted  (x1)" in listing.getvalue(), listing.getvalue()
    cases = {
        "a db.commits: 7 -> 8": lambda d: d["telemetry"]["a"].update({"db.commits": 8}),
        "a db.commits: 7 -> 7.0": lambda d: d["telemetry"]["a"].update({"db.commits": 7.0}),
        "a db.lat.mean_us: 1.5 -> 1.5000000000000002": lambda d: d["telemetry"]["a"][
            "db.lat"
        ].update({"mean_us": 1.5000000000000002}),
        "path removed: b dev0.core.cmb.lane0.bytes_in": lambda d: d["telemetry"]["b"].clear(),
        "label removed: b": lambda d: d["telemetry"].pop("b"),
        "rows[0] (s, x=1.0) y: 2.5 -> 2.5000000000000004": lambda d: d["rows"][0].update(
            {"y": 2.5000000000000004}
        ),
        "rows: 1 -> 2 rows": lambda d: d["rows"].append({}),
        "name: 't' -> 'u'": lambda d: d.update({"name": "u"}),
    }
    for expect, edit in cases.items():
        failures, added = edited(edit)
        assert len(failures) == 1 and not added, (expect, failures)
        assert failures[0][0] in KINDS[:3] and expect in failures[0][1], (expect, failures)
    assert layer("dev1.core.transport.flow0.busy_ns") == "core.transport"
    print(f"results_diff self-test: ok ({len(cases) + 2} cases)")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--self-test"]:
        self_test()
    elif len(args) == 3 and args[0] == "--gate":
        sys.exit(main(args[1], args[2], gate=True))
    elif len(args) == 2 and not args[0].startswith("-"):
        sys.exit(main(args[0], args[1], gate=False))
    else:
        sys.exit(__doc__)
