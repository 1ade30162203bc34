#!/usr/bin/env python3
"""Every exported counter moves in some golden, or says why not.

    zero_paths.py          the gate (scripts/check.sh): exit 1 on a zero path
                           ALLOW does not list, or on a stale ALLOW entry
    zero_paths.py --list   every folded path that is zero in all cells

Reads the telemetry of `results/*.json` and folds each path: the `devN.`
prefix goes, and lane, flow, die, bus and series-bucket indices become `N`
(`dev1.core.cmb.lane0.held_chunks` -> `core.cmb.laneN.held_chunks`); a
latency summary is one path per field. A folded path is *zero* when its
value is 0 in every cell that holds it.

A zero path is allowed only with one reason (ROADMAP item 17):
- RESULT: the zero is the measured outcome (a gauge that ends drained, a
  count the workloads cannot produce);
- TEST: the model path runs, just not in a golden; the entry names the
  tests that execute it, and each must exist as a `fn` under crates/ or tests/;
- CONSTANT: an exported constant a golden or the benchmark still reads,
  until its single regeneration (ROADMAP items 8 and 16).
An entry whose path is nonzero somewhere, or no longer exported, is stale
and fails: the reason no longer holds, so the entry goes.
"""
import glob
import os
import re
import sys
from collections import defaultdict

from results_diff import DEVICE, leaves, load

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
RESULT, TEST, CONSTANT = "result", "test", "constant"

PORT_FAULT_TESTS = (
    "injected_error_completions_are_retried_transparently",
    "lost_completions_time_out_abort_and_retry",
)
FLOW_LINK_DOWN_TESTS = (
    "runs_match_the_reference_with_faults_and_link_outages",
    "the_bound_based_wait_equals_the_brute_force_one",
)
BUFFER_HIT_TESTS = ("write_then_read_hits", "buffered_read_completes_one_unit_after_its_dma_could_start")
NEVER_ABORTS = "only TPC-C NewOrder rolls back (1 % invalid item); no other kind aborts"

# path -> (reason kind, why; for TEST the tests that execute the path)
ALLOW = {
    # Verdict (c): runs held above the tail, until item 13 decides.
    "core.cmb.laneN.held_chunks": (TEST, ("out_of_order_chunks_hold_credits_until_gap_fills",)),
    # Verdict (d): the port fault and retry paths and the NTB link faults.
    "core.port.fault.dropped_completions": (TEST, PORT_FAULT_TESTS),
    "core.port.fault.error_completions": (TEST, PORT_FAULT_TESTS),
    "core.port.fault.timeouts": (TEST, PORT_FAULT_TESTS),
    "core.port.retry.resubmits": (TEST, PORT_FAULT_TESTS),
    "db.log.port.fault.dropped_completions": (TEST, PORT_FAULT_TESTS),
    "db.log.port.fault.error_completions": (TEST, PORT_FAULT_TESTS),
    "db.log.port.fault.timeouts": (TEST, PORT_FAULT_TESTS),
    "db.log.port.retry.resubmits": (TEST, PORT_FAULT_TESTS),
    "core.transport.flowN.fault.link_down_deferrals": (TEST, FLOW_LINK_DOWN_TESTS),
    "core.transport.upstream.fault.link_down_deferrals": (TEST, FLOW_LINK_DOWN_TESTS),
    # Verdict (e): the pipelined log writer; the benchmark's ycsb_nvme runs
    # it at depth 4, until item 7.
    "db.log.async_appends": (
        TEST,
        ("pipelined_flushes_overlap_and_converge", "pipelined_poll_delivers_in_completion_order"),
    ),
    # Verdict (a), kept: the benchmark's destage_mixed serves every read
    # from the buffer (691 of 691 in a quick run).
    "ssd.buffer.read_hits": (TEST, BUFFER_HIT_TESTS),
    "ssd.buffer.hit_rate_pct": (TEST, BUFFER_HIT_TESTS),
    # Gauges that end drained: every cell stops after its work completed.
    "core.port.inflight": (RESULT, "no command in flight at the cut"),
    "db.log.port.inflight": (RESULT, "no command in flight at the cut"),
    "db.log.appends_in_flight": (RESULT, "no log append in flight at the cut"),
    "db.wal.pending_bytes": (RESULT, "the WAL is flushed at the cut"),
    "recovery.torn_bytes": (RESULT, "recovery finds no torn record"),
    "db.mix.delivery.aborted": (RESULT, NEVER_ABORTS),
    "db.mix.order_status.aborted": (RESULT, NEVER_ABORTS),
    "db.mix.payment.aborted": (RESULT, NEVER_ABORTS),
    "db.mix.stock_level.aborted": (RESULT, NEVER_ABORTS),
    "db.mix.insert.aborted": (RESULT, NEVER_ABORTS),
    "db.mix.read.aborted": (RESULT, NEVER_ABORTS),
    "db.mix.rmw.aborted": (RESULT, NEVER_ABORTS),
    "db.mix.scan.aborted": (RESULT, NEVER_ABORTS),
    "db.mix.update.aborted": (RESULT, NEVER_ABORTS),
    # Constants of deleted models (the GC, PR 29; the bit-error/ECC draw).
    "flash.array.erases": (CONSTANT, "no erase model; the benchmark reads it (item 8)"),
    "flash.array.corrected_bits": (CONSTANT, "no ECC model; goes at item 16's regeneration"),
    "flash.array.uncorrectable_reads": (CONSTANT, "no ECC model; goes at item 16's regeneration"),
    "ssd.ftl.gc_erases": (CONSTANT, "no GC; goes with item 8's shims"),
    "ssd.ftl.gc_writes": (CONSTANT, "no GC; the benchmark reads it (item 8)"),
}

INDEXED = re.compile(r"^(lane|flow|die|bus|t)\d+$")


def fold(path):
    """`dev1.core.transport.flow2.payload_bytes` -> `core.transport.flowN.payload_bytes`."""
    parts = DEVICE.sub("", path).split(".")
    return ".".join(INDEXED.sub(r"\1N", part) for part in parts)


def folded_values():
    """`{folded path: [value in each cell]}` over every golden."""
    values = defaultdict(list)
    for name in sorted(glob.glob(os.path.join(ROOT, "results", "*.json"))):
        for (_label, path), value in leaves(load(name).get("telemetry", {})).items():
            values[fold(path)].append(value)
    return values


def test_names():
    """Every `fn name(` under crates/ and tests/."""
    names = set()
    pattern = re.compile(r"\bfn ([a-z_0-9]+)\s*[(<]")
    for top in ("crates", "tests"):
        for name in glob.glob(os.path.join(ROOT, top, "**", "*.rs"), recursive=True):
            with open(name) as f:
                names.update(pattern.findall(f.read()))
    return names


def main(listing):
    values = folded_values()
    zero = sorted(path for path, vs in values.items() if all(v == 0 for v in vs))
    if listing:
        for path in zero:
            kind = ALLOW.get(path, ("UNLISTED",))[0]
            print(f"{path}  ({len(values[path])} cells, {kind})")
        print(f"{len(zero)} of {len(values)} folded paths are zero in every cell")
        return 0
    failures = [f"zero in every cell, not in ALLOW: {p}" for p in zero if p not in ALLOW]
    names = test_names()
    for path, (kind, why) in sorted(ALLOW.items()):
        if path not in values:
            failures.append(f"stale entry, no golden exports it: {path}")
        elif path not in zero:
            failures.append(f"stale entry, nonzero in some cell: {path}")
        if kind == TEST:
            failures += [f"{path}: no test `{t}`" for t in why if t not in names]
        elif kind not in (RESULT, CONSTANT):
            failures.append(f"{path}: unknown reason kind {kind!r}")
    for line in failures:
        print(f"  ! {line}")
    print(f"zero paths: {len(zero)} of {len(values)} folded paths, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args not in ([], ["--list"]):
        sys.exit(__doc__)
    sys.exit(main(listing=args == ["--list"]))
