#!/usr/bin/env bash
# Sample where one benchmark workload spends its host time.
#
#   scripts/profile.sh <workload> [seed] [runs]
#
# Builds the benchmark with frame pointers into its own target directory,
# compiles scripts/prof/sigprof_preload.c (a SIGPROF sampler: RIP plus the
# frame-pointer chain, ~250 samples per CPU second), runs
# `child --workload <workload> --seed <seed>` under LD_PRELOAD `runs` times
# (fresh process each, default 3; seed default 7) and prints self and
# inclusive percentages per symbol.
#
# Linux / x86-64 only; needs cc, nm and python3. A diagnostic, not a gate:
# nothing in check.sh or CI runs it, and a profile says where a cost sits —
# the A/B protocol in benchmark/README.md is what says a change removed it.
# Frames inside libc (memcpy, malloc) resolve to the nearest exported symbol.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload="${1:?usage: scripts/profile.sh <workload> [seed] [runs]}"
seed="${2:-7}"
runs="${3:-3}"
mkdir -p "${PROFILE_TARGET_DIR:-target/profile}"
dir="$(cd "${PROFILE_TARGET_DIR:-target/profile}" && pwd)" # LD_PRELOAD needs an absolute path

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$dir" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
cc -O2 -shared -fPIC -o "$dir/sigprof_preload.so" scripts/prof/sigprof_preload.c

samples=()
for i in $(seq 1 "$runs"); do
    out="$dir/samples-$workload-$i.out"
    SIGPROF_OUT="$out" LD_PRELOAD="$dir/sigprof_preload.so" \
        "$dir/release/xssd-benchmark" child --workload "$workload" --seed "$seed" > /dev/null
    samples+=("$out")
done
python3 scripts/prof/report.py "${samples[@]}"
