#!/usr/bin/env python3
"""Resolve sigprof_preload.c sample files against `nm` symbol tables.

Prints self and inclusive time per symbol as a percentage of all samples.
With --callers, also prints who the samples whose leaf symbol starts with
PREFIX ran under: their most common chains of the next three frames. A
libc leaf (memcpy, malloc) keeps no frame of its own, so the first frame of
its chain is its caller's caller; the chain is what gives it an owner.
With --under, takes the samples with a frame whose symbol starts with FRAME
on their stack and prints, as shares of those samples, the frame's direct
callees (at its innermost occurrence; "[self]" when it is the leaf) and the
leaf symbols they ended in: where the time under one function goes.
Addresses are mapped to files through the "map" lines (a file's load base is
the start of its offset-0 mapping), then to the nearest preceding symbol of
`nm -C --defined-only`. A frame inside a library built without frame
pointers or with local symbols stripped resolves to the nearest exported
symbol before it, so libc-internal memcpy/malloc variants can carry a
neighbour's name.
"""
import argparse
import bisect
import collections
import re
import subprocess
import sys


def symbols(path):
    """Sorted (address, name) pairs of the text symbols defined in `path`."""
    syms = []
    for flags in (["-C", "--defined-only"], ["-C", "-D", "--defined-only"]):
        try:
            out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
        except OSError:
            continue
        for line in out.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "tTwWiu":
                syms.append((int(parts[0], 16), parts[2]))
    syms = sorted(set(syms))
    return [a for a, _ in syms], [n for _, n in syms]


def load(path):
    """One sample file: per-file load bases, executable ranges, stacks."""
    bases, ranges, stacks, dropped = {}, [], [], 0
    with open(path) as f:
        for line in f:
            if line.startswith("map "):
                span, perms, off, _dev, _inode, file = line[4:].split(None, 5)
                lo, hi = (int(x, 16) for x in span.split("-"))
                file = file.strip()
                # The mapping of file offset 0 is where the ELF image starts;
                # symbol addresses are relative to it.
                if int(off, 16) == 0:
                    bases[file] = min(lo, bases.get(file, lo))
                if "x" in perms:
                    ranges.append((lo, hi, file))
            elif line.startswith("dropped "):
                dropped += int(line.split()[1])
            elif line.startswith("s "):
                stacks.append([int(x, 16) for x in line.split()[1:]])
    return bases, ranges, stacks, dropped


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--top", type=int, default=30, metavar="N", help="rows per table")
    parser.add_argument("--callers", metavar="PREFIX", help="caller chains of these leaves")
    parser.add_argument("--under", metavar="FRAME", help="callees and leaves below this frame")
    parser.add_argument("files", nargs="+", metavar="samples.out")
    args = parser.parse_args(argv)
    top, callers, under = args.top, args.callers, args.under
    # Address-space layout differs per process: resolve each file's samples
    # against its own maps.
    self_t, incl_t, total, dropped = collections.Counter(), collections.Counter(), 0, 0
    chains = collections.Counter()
    callees, leaves_under = collections.Counter(), collections.Counter()
    tables = {}
    strip_hash = re.compile(r"::h[0-9a-f]{16}$")
    for path in args.files:
        bases, ranges, stacks, d = load(path)
        dropped += d

        def resolve(addr, is_return):
            probe = addr - 1 if is_return else addr  # a return address may sit past the call's symbol
            for lo, hi, file in ranges:
                if lo <= probe < hi:
                    if file not in tables:
                        tables[file] = symbols(file)
                    addrs, names = tables[file]
                    i = bisect.bisect_right(addrs, probe - bases.get(file, lo)) - 1
                    if i < 0:
                        return f"[{file.rsplit('/', 1)[-1]}]"
                    return strip_hash.sub("", names[i])
            return "[unmapped]"

        for stack in stacks:
            total += 1
            names = [resolve(a, i > 0) for i, a in enumerate(stack)]
            self_t[names[0]] += 1
            for name in set(names):
                incl_t[name] += 1
            if callers is not None and names[0].startswith(callers):
                chains[" <- ".join(names[1:4]) or "[no caller frames]"] += 1
            if under is not None:
                at = next((i for i, n in enumerate(names) if n.startswith(under)), None)
                if at is not None:
                    callees[names[at - 1] if at > 0 else "[self]"] += 1
                    leaves_under[names[0]] += 1
    if total == 0:
        sys.exit("no samples")
    print(f"{total} samples from {len(args.files)} run(s), {dropped} dropped (buffer full)")
    for title, table in (("self", self_t), ("inclusive", incl_t)):
        print(f"\n-- {title} --")
        for name, n in table.most_common(top):
            print(f"{100.0 * n / total:6.2f}%  {n:7d}  {name}")
    if callers is not None:
        leaves = sum(chains.values())
        print(f"\n-- callers of {callers}* ({leaves} samples, {100.0 * leaves / total:.2f}%) --")
        for chain, n in chains.most_common(top):
            print(f"{100.0 * n / max(leaves, 1):6.2f}%  {n:7d}  {chain}")
    if under is not None:
        held = sum(leaves_under.values())
        print(f"\n-- under {under}* ({held} samples, {100.0 * held / total:.2f}%) --")
        for title, table in (("direct callees", callees), ("leaves", leaves_under)):
            print(f"  {title}:")
            for name, n in table.most_common(top):
                print(f"{100.0 * n / max(held, 1):6.2f}%  {n:7d}  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
