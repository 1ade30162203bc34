#!/usr/bin/env python3
"""Fail when a `pub mod` of a crate is an island: no `pub` item it declares
is mentioned by non-test code outside the module's own file(s) and the
crate's `lib.rs`. Model code nothing runs cannot be validated (ROADMAP
aim 3), and islands grow quietly behind a `pub use`.

Non-test code is `crates/*/src` (harness binaries included),
`crates/*/benches`, `benchmark/src`, `examples/` and the root `src/`, with
comments and `#[cfg(test)] mod …` tails stripped. A module's items are its
column-0 `pub` declarations and the names it re-exports.

Also printed, without failing: names a `lib.rs` re-exports that only their
defining file mentions. That list is a reading aid — a type that only ever
appears as a return value shows up in it.

Run from anywhere inside the repository: scripts/reachability.py
"""
import glob
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
ITEM = re.compile(r"^pub (?:fn|struct|enum|trait|type|const|static) (\w+)", re.M)
USE = r"^pub use %s(?:\{([^}]*)\}|(\w+));"


def names(pattern, text):
    """Identifiers a `pub use <pattern>…;` brings out, brace lists included."""
    found = re.findall(USE % pattern, text, re.M)
    return re.findall(r"\w+", " ".join(a + b for a, b in found))


def code(path):
    """The file's non-test code, comments removed."""
    text = open(path).read()
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return re.split(r"#\[cfg\(test\)\]\s*(?:pub(?:\(\w+\))? )?mod ", text)[0]


def main():
    os.chdir(ROOT)
    patterns = ["crates/*/src/**/*.rs", "crates/*/benches/*.rs", "benchmark/src/**/*.rs"]
    patterns += ["examples/**/*.rs", "src/**/*.rs"]
    corpus = {p: code(p) for pat in patterns for p in glob.glob(pat, recursive=True)}
    islands, quiet = [], []
    for lib in sorted(glob.glob("crates/*/src/lib.rs")):
        src = os.path.dirname(lib)
        crate = lib.split("/")[1]
        for mod in re.findall(r"^pub mod (\w+);", corpus[lib], re.M):
            own = {p for p in corpus if p == f"{src}/{mod}.rs" or p.startswith(f"{src}/{mod}/")}
            others = [text for p, text in corpus.items() if p not in own and p != lib]

            def mentioned(name):
                word = re.compile(rf"\b{name}\b")
                return any(word.search(text) for text in others)

            items = {n for p in own for n in ITEM.findall(corpus[p]) + names(r"[\w:]*::", corpus[p])}
            if not any(mentioned(name) for name in items):
                islands.append(f"{crate}::{mod}")
            quiet += [f"{crate}::{mod}::{n}" for n in names(f"{mod}::", corpus[lib]) if not mentioned(n)]
    if quiet:
        print("re-exported, mentioned only by the defining file (not a failure):")
        print("  " + "\n  ".join(quiet))
    if islands:
        print("FAIL: no non-test code outside these modules mentions anything they declare:")
        print("  " + "\n  ".join(islands))
        print("Run the module from a gated harness, a benchmark workload or an example, or delete it.")
        return 1
    print(f"ok: every pub mod under crates/*/src is mentioned by non-test code ({len(corpus)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
