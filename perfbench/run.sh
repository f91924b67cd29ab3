#!/usr/bin/env bash
# Build the benchmark and the server it drives from this checkout's
# sources, then run one measurement:
#   bash perfbench/run.sh --workload paper|generated --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
# the dune cache lives outside the checkout: keep every write inside it
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet ./perfbench/main.exe ./bin/mapdisc.exe 1>&2
# Every process of the run (the phases and the server they start) shares
# one CPU, the last: the phases never work at the same time, and a server
# woken on the CPU its client just ran on does not wait for an idle CPU
# to wake up, which made sub-millisecond latencies jump from run to run.
# Address-space randomisation is off, so each run lays the processes out
# alike: with it on, the served sub-millisecond medians spread twice as
# wide over five seeds.
cpus=$(nproc 2>/dev/null || echo 1)
wrap=()
if command -v taskset >/dev/null 2>&1; then
  wrap=(taskset -c "$((cpus - 1))")
fi
if command -v setarch >/dev/null 2>&1 && setarch "$(uname -m)" -R true 2>/dev/null; then
  wrap=(setarch "$(uname -m)" -R "${wrap[@]}")
fi
exec "${wrap[@]}" ./_build/default/perfbench/main.exe \
  --mapdisc ./_build/default/bin/mapdisc.exe --nproc "$cpus" "$@"
