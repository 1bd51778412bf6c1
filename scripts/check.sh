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

# Dead-export gate: every val of lib/*/*.mli needs a caller outside the
# tests and its own module, or a line with its reason in
# scripts/dead_exports.allow (a line naming no dead export fails too).
dune exec scripts/dead_exports.exe -- scripts/dead_exports.allow

# Scratch files live in a private directory, so two checkouts running
# the gate at once cannot clobber each other's outputs.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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
dune exec bench/main.exe -- --quick --metrics $tmp/m.json > /dev/null
dune exec bench/main.exe -- validate-metrics $tmp/m.json
dune exec bench/main.exe -- compare-metrics BENCH_smoke.json $tmp/m.json
# Allocation gate: the same single-threaded smoke sort allocates the same
# number of words on every run, so more than 1 % growth in its minor
# words against the committed report is a regression seen in one run —
# finer than the wall-clock gate below.  Promoted words also follow where
# the minor collections fall, so that check sums them over a sweep of six
# minor-heap sizes (the report's alloc_sweep), each sort from a
# compacted heap.
dune exec bench/main.exe -- compare-alloc BENCH_smoke.json $tmp/m.json

# Incremental-maintenance gate (E-ingest): a k-subtree update batch
# buffered in the external priority queue and flushed through
# Xmerge.Ingest must cost strictly fewer block I/Os than re-sorting the
# updated document from scratch, and the incremental output must be
# digest-identical to the oracle's sequential batch application (the
# experiment exits non-zero on either failure).
dune exec bench/main.exe -- --quick ingest > /dev/null

# Graceful-degeneration parity (§3.2, A-deg): on a flat document NEXSORT
# with degeneration is an external merge sort, so it must not cost more
# block I/Os than the key-path merge sort (the experiment exits non-zero
# when it does).
dune exec bench/main.exe -- --quick ablate-degen > /dev/null

# Doubling sweep (E-scan): each shape family (spine height, attributes
# per element, fan-out, text, name and key length) sorts sizes n and 2n.
# Linear work keeps minor words per input byte flat and doubles the wall;
# the experiment exits non-zero when words per byte grow more than 1.25x
# or, where size n takes at least 0.2 s, the median wall of 5 grows more
# than 3x.
dune exec bench/main.exe -- linear-sweep > /dev/null

# The reference sort the engine smoke below compares daemon jobs with.
dune exec bin/xmlgen_cli.exe -- --seed 7 --fanouts 8,8,8,5 --avg-bytes 120 -o $tmp/doc.xml \
  > /dev/null
dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 --metrics $tmp/doc.ref.json \
  -o $tmp/doc.ref.xml $tmp/doc.xml > /dev/null

# Sort fence: each kind of subtree sort opens one stream, which a run
# drains or the fused output phase consumes.  Over shapes that reach
# every kind — in-memory subtree runs, a forward and a reverse-scan
# external root (a threshold above the document, degeneration off, by
# @id and by text), fragment merges (the flat documents) and verbatim
# copies (--depth-limit 1) — the default and the unfused outputs must be
# byte-identical.  The deep smoke shape at -t 1024 nests runs two deep,
# so the output phase suspends a reader at a run pointer and resumes it
# from memory.  An -O @id row also sorts with --encoding dict: the
# default there is packed (end-tag elimination), and the encoding must
# not change the output.  The default and unfused rows write metrics
# reports, validated after the loop.  Every row's default output must
# also equal the internal-memory tree sort's (`-a treesort`, same -O), which writes
# through `Xmlio.Writer.event`: this pins the output phase's entry
# serializer to the event writer on every shape.  Treesort takes every
# row (it ignores -t and --no-degeneration and applies --depth-limit as
# NEXSORT does), so none is left out.
dune exec bin/xmlgen_cli.exe -- --seed 7 --fanouts 3000 --avg-bytes 120 -o $tmp/flat.xml \
  > /dev/null 2>&1
dune exec bin/xmlgen_cli.exe -- --seed 1 --fanouts 6,6,6,4,2,2 -o $tmp/deep.xml > /dev/null 2>&1
dune exec bin/xmlgen_cli.exe -- --seed 9 --fanouts 3,1500 --avg-bytes 120 -o $tmp/f31500.xml \
  > /dev/null 2>&1
fence=0
while read -r doc args; do
  fence=$((fence + 1))
  f=$tmp/fence$fence
  # (stdin is the shape list: keep it from the commands)
  dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 $args --metrics $f.json -o $f.xml $tmp/$doc \
    < /dev/null > /dev/null
  dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 $args --no-fuse --metrics $f.nofuse.json \
    -o $f.nofuse.xml $tmp/$doc < /dev/null > /dev/null
  dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 $args -a treesort -o $f.treesort.xml \
    $tmp/$doc < /dev/null > /dev/null
  # An -O @id row runs packed by default; dict must write the same bytes.
  # (The -O text rows run dict by default.)
  modes="nofuse treesort"
  case "$args" in
    *"-O @id"*)
      dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 $args --encoding dict -o $f.dict.xml \
        $tmp/$doc < /dev/null > /dev/null
      modes="$modes dict" ;;
  esac
  for m in $modes; do
    cmp $f.xml $f.$m.xml || {
      echo "sort fence: $doc $args: the $m output differs" >&2; exit 1; }
  done
done <<EOF
doc.xml -O @id
doc.xml -t 100000000 --no-degeneration -O @id
doc.xml -t 100000000 --no-degeneration -O text
flat.xml -O @id
f31500.xml -O @id
f31500.xml --no-degeneration -O @id
f31500.xml --no-degeneration -O text
f31500.xml --depth-limit 1 -O @id
deep.xml -t 1024 -O @id
EOF
# Every run is read once and freed block by block as it is read, so
# each fence sort, fused or not, must end with its runs device empty
# (validate-metrics fails a report whose dev.runs.live_blocks is not 0).
dune exec bench/main.exe -- validate-metrics $tmp/fence*.json > /dev/null

# Exact I/O fence: the sort-fence shapes and two more rows must give the
# very io sections committed in BENCH_io.json, compared both ways (see
# the script; only its --update rewrites the file).
sh scripts/io_fence.sh

# Engine smoke: the multi-tenant daemon must serve interleaved jobs from
# two tenants under a queue-forcing budget and stay invisible in the
# result — every output byte-identical to a standalone single-job CLI
# run, every per-job I/O counter pinned equal (both compare directions),
# and zero leaked blocks in the shutdown summary.  A short multi-tenant
# fuzz run drives the same admission path through the config matrix.
for i in 1 2 3 4 5 6 7 8; do
  t=acme; [ $((i % 2)) -eq 0 ] && t=bravo
  echo "sort -B 1024 -M 16 $tmp/doc.xml -o $tmp/eng$i.xml --metrics $tmp/eng$i.json --tenant $t" \
    >> $tmp/eng_jobs.txt
done
dune exec bin/nexsortd.exe -- --memory 40 --block-size 1024 $tmp/eng_jobs.txt > $tmp/engd.out
grep -q 'leaked blocks: 0' $tmp/engd.out || {
  echo "engine smoke: daemon summary reports leaked blocks" >&2; cat $tmp/engd.out >&2; exit 1; }
grep -q '8 jobs: 8 done, 0 cancelled, 0 failed' $tmp/engd.out || {
  echo "engine smoke: not all daemon jobs completed" >&2; cat $tmp/engd.out >&2; exit 1; }
# Each job's output endpoint is a temporary file beside its output,
# renamed over it on success: none may be left behind.
if ls -A $tmp | grep '\.tmp$' >&2; then
  echo "engine smoke: the daemon left temporary output files" >&2; exit 1; fi
for i in 1 2 3 4 5 6 7 8; do
  cmp $tmp/eng$i.xml $tmp/doc.ref.xml
  dune exec bench/main.exe -- compare-metrics $tmp/doc.ref.json $tmp/eng$i.json
  dune exec bench/main.exe -- compare-metrics $tmp/eng$i.json $tmp/doc.ref.json
done
dune exec bin/nexfuzz.exe -- --tenants 4 --cases 24 --fault-cases 0 > /dev/null

# Trace smoke: a traced sort must produce a trace that nextrace
# validates, carrying the sorter's phase spans.
dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 --trace $tmp/trace.json \
  -o $tmp/trace.out.xml $tmp/doc.xml > /dev/null
dune exec bin/nextrace.exe -- --check $tmp/trace.json
dune exec bin/nextrace.exe -- --top 100 $tmp/trace.json > $tmp/trace.txt
for needle in input_scan subtree_sorts output; do
  grep -q "$needle" $tmp/trace.txt || {
    echo "trace smoke: missing \"$needle\" in nextrace output" >&2; exit 1; }
done
# Every device's block I/O reaches the trace through the device's one
# I/O event: the endpoints and the run devices each get io latency rows.
sed -n '/^io latency:/,/^$/p' $tmp/trace.txt > $tmp/trace_io.txt
for needle in read:input write:output read:runs write:runs; do
  grep -q "$needle" $tmp/trace_io.txt || {
    echo "trace smoke: no \"$needle\" row in nextrace's io latency table" >&2; exit 1; }
done
# The merge's endpoints (left, right, output) are built like the sort's,
# so a traced merge gets their io latency rows too.
dune exec bin/xmlgen_cli.exe -- --seed 3 --fanouts 6,6,4 --avg-bytes 60 -o $tmp/ml.xml > /dev/null
dune exec bin/xmlgen_cli.exe -- --seed 4 --fanouts 6,6,4 --avg-bytes 60 -o $tmp/mr.xml > /dev/null
dune exec bin/xmlmerge_cli.exe -- -O @id --device mem --trace $tmp/tracem.json \
  $tmp/ml.xml $tmp/mr.xml -o $tmp/tracem.out.xml 2> /dev/null
dune exec bin/nextrace.exe -- --check $tmp/tracem.json
dune exec bin/nextrace.exe -- --top 100 $tmp/tracem.json | sed -n '/^io latency:/,/^$/p' \
  > $tmp/tracem_io.txt
for needle in read:left read:right write:output; do
  grep -q "$needle" $tmp/tracem_io.txt || {
    echo "trace smoke: no \"$needle\" row in the merge trace's io latency table" >&2; exit 1; }
done
# Merge fence: every xmlmerge mode runs one device path over the files,
# and a daemon merge job is the same job.  A fused merge, an unfused one,
# a presorted one over nexsort-sorted copies and a daemon merge must
# write the same bytes, and the xmlmerge and daemon reports' io sections
# are pinned equal (both compare directions).
dune exec bin/nexsort_cli.exe -- -O @id $tmp/ml.xml -o $tmp/ml.sorted.xml
dune exec bin/nexsort_cli.exe -- -O @id $tmp/mr.xml -o $tmp/mr.sorted.xml
dune exec bin/xmlmerge_cli.exe -- -O @id --metrics $tmp/mfused.json \
  $tmp/ml.xml $tmp/mr.xml -o $tmp/mfused.xml 2> /dev/null
dune exec bin/xmlmerge_cli.exe -- -O @id --no-fuse $tmp/ml.xml $tmp/mr.xml -o $tmp/mnofuse.xml \
  2> /dev/null
dune exec bin/xmlmerge_cli.exe -- -O @id --presorted $tmp/ml.sorted.xml $tmp/mr.sorted.xml \
  -o $tmp/mpresorted.xml 2> /dev/null
echo "merge -O @id $tmp/ml.xml $tmp/mr.xml -o $tmp/mdaemon.xml --metrics $tmp/mdaemon.json" \
  > $tmp/mjobs.txt
dune exec bin/nexsortd.exe -- $tmp/mjobs.txt > $tmp/mjobs.out
grep -q '1 jobs: 1 done, 0 cancelled, 0 failed; leaked blocks: 0' $tmp/mjobs.out || {
  echo "merge fence: the daemon merge failed or leaked" >&2; cat $tmp/mjobs.out >&2; exit 1; }
for m in mnofuse mpresorted mdaemon; do
  cmp $tmp/mfused.xml $tmp/$m.xml
done
dune exec bench/main.exe -- compare-metrics $tmp/mfused.json $tmp/mdaemon.json
dune exec bench/main.exe -- compare-metrics $tmp/mdaemon.json $tmp/mfused.json
# A traced device spec mirrors block positions into the trace as access.*
# counters, on the output endpoint as on every other device.
dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 --device traced/mem --trace $tmp/tracea.json \
  -o $tmp/tracea.out.xml $tmp/doc.xml > /dev/null
dune exec bin/nextrace.exe -- --check $tmp/tracea.json
grep -q '"access.write:output"' $tmp/tracea.json || {
  echo "trace smoke: a traced/mem sort carries no access.write:output events" >&2; exit 1; }

# Wall-clock gate (bechamel): deliberately loose — fail only on a > 3x
# slowdown against the committed baseline.  Absolute times are noisy;
# the I/O-counter gates above are the precise regression signal.  As
# with the smoke report, the committed BENCH_wall.json is only ever
# replaced by hand.
dune exec bench/main.exe -- --quick --wall $tmp/wall.json wall > /dev/null
dune exec bench/main.exe -- compare-wall BENCH_wall.json $tmp/wall.json

echo "check: OK"
