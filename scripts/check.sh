#!/bin/sh
# CI gate: full build + test suite, plus repo hygiene.
# Run from anywhere inside the repository.
set -eu

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

if git ls-files -- _build | grep -q .; then
  echo "error: _build/ is tracked in the git index; run 'git rm -r --cached _build'" >&2
  exit 1
fi

dune build @all
dune runtest

# Fuzz smoke (also part of runtest): fixed-seed differential runs of
# nexsort and the baselines against the in-memory oracle, plus
# fault-schedule sweeps.  Run explicitly so a failure prints the
# reproducer even when runtest output is captured.
dune exec bin/nexfuzz.exe -- --smoke

# Update-ingest sweep well past the smoke's 16 cases: 200 seeded edit
# scripts through Xmerge.Ingest under faults and memory pressure, each
# flush validated as sorted and its positional index re-checked.
dune exec bin/nexfuzz.exe -- --updates --update-cases 200

# Bench smoke: a quick run must produce a metrics report that parses and
# carries the paper's per-phase I/O breakdown (§4.2), and no I/O counter
# may regress against the committed BENCH_smoke.json.  The gate never
# rewrites the baseline: refreshing it is a deliberate, reviewed commit
# (see README "Baselines").
dune exec bench/main.exe -- --quick --metrics /tmp/m.json > /dev/null
dune exec bench/main.exe -- validate-metrics /tmp/m.json
dune exec bench/main.exe -- compare-metrics BENCH_smoke.json /tmp/m.json

# Replacement-policy sweep: every frame-arena policy must produce
# byte-identical sorted/merged output (the experiment exits non-zero on a
# digest mismatch); only the paging counters may differ.
dune exec bench/main.exe -- --quick policy-sweep > /dev/null

# Incremental-maintenance gate (E-ingest): a k-subtree update batch
# buffered in the external priority queue and flushed through
# Xmerge.Ingest must cost strictly fewer block I/Os than re-sorting the
# updated document from scratch, and the incremental output must be
# digest-identical to the oracle's sequential batch application (the
# experiment exits non-zero on either failure).
dune exec bench/main.exe -- --quick ingest > /dev/null

# Parallel smoke: the worker pool must be invisible in the output and in
# the I/O bill.  Sort the same document with --jobs 1 and --jobs 4 and
# require byte-identical results plus identical metrics counters (the
# compare in both directions pins them equal, not merely non-regressing).
dune exec bin/xmlgen_cli.exe -- --seed 7 --fanouts 8,8,8,5 --avg-bytes 120 -o /tmp/par.xml \
  > /dev/null
dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 --jobs 1 --metrics /tmp/par1.json \
  -o /tmp/par1.out.xml /tmp/par.xml > /dev/null
dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 --jobs 4 --metrics /tmp/par4.json \
  -o /tmp/par4.out.xml /tmp/par.xml > /dev/null
cmp /tmp/par1.out.xml /tmp/par4.out.xml
dune exec bench/main.exe -- compare-metrics /tmp/par1.json /tmp/par4.json
dune exec bench/main.exe -- compare-metrics /tmp/par4.json /tmp/par1.json

# Engine smoke: the multi-tenant daemon must serve interleaved jobs from
# two tenants under a queue-forcing budget and stay invisible in the
# result — every output byte-identical to a standalone single-job CLI
# run, every per-job I/O counter pinned equal (both compare directions),
# and zero leaked blocks in the shutdown summary.  A short multi-tenant
# fuzz run drives the same admission path through the config matrix.
rm -f /tmp/eng_jobs.txt
for i in 1 2 3 4 5 6 7 8; do
  t=acme; [ $((i % 2)) -eq 0 ] && t=bravo
  echo "sort -B 1024 -M 16 /tmp/par.xml -o /tmp/eng$i.xml --metrics /tmp/eng$i.json --tenant $t" \
    >> /tmp/eng_jobs.txt
done
dune exec bin/nexsortd.exe -- --memory 40 --block-size 1024 /tmp/eng_jobs.txt > /tmp/engd.out
grep -q 'leaked blocks: 0' /tmp/engd.out || {
  echo "engine smoke: daemon summary reports leaked blocks" >&2; cat /tmp/engd.out >&2; exit 1; }
grep -q '8 jobs: 8 done, 0 cancelled, 0 failed' /tmp/engd.out || {
  echo "engine smoke: not all daemon jobs completed" >&2; cat /tmp/engd.out >&2; exit 1; }
for i in 1 2 3 4 5 6 7 8; do
  cmp /tmp/eng$i.xml /tmp/par1.out.xml
  dune exec bench/main.exe -- compare-metrics /tmp/par1.json /tmp/eng$i.json
  dune exec bench/main.exe -- compare-metrics /tmp/eng$i.json /tmp/par1.json
done
dune exec bin/nexfuzz.exe -- --tenants 4 --cases 24 --fault-cases 0 > /dev/null

# Trace smoke: a --jobs 4 traced sort must produce a trace that nextrace
# validates, carrying the sorter's phase spans and one track per worker.
dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 --jobs 4 --trace /tmp/trace4.json \
  -o /tmp/trace4.out.xml /tmp/par.xml > /dev/null
dune exec bin/nextrace.exe -- --check /tmp/trace4.json
dune exec bin/nextrace.exe -- --top 100 /tmp/trace4.json > /tmp/trace4.txt
for needle in input_scan subtree_sorts output 'worker 0' 'worker 1' 'worker 2' 'worker 3'; do
  grep -q "$needle" /tmp/trace4.txt || {
    echo "trace smoke: missing \"$needle\" in nextrace output" >&2; exit 1; }
done

# Wall-clock gate (bechamel): deliberately loose — fail only on a > 3x
# slowdown against the committed baseline.  Absolute times are noisy;
# the I/O-counter gates above are the precise regression signal.  As
# with the smoke report, the committed BENCH_wall.json is only ever
# replaced by hand.
dune exec bench/main.exe -- --quick --wall /tmp/wall.json wall > /dev/null
dune exec bench/main.exe -- compare-wall BENCH_wall.json /tmp/wall.json

echo "check: OK"
