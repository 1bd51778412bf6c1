#!/bin/sh
# Exact I/O fence: the "io" section (every per-phase and per-component
# block count) of a handful of sub-second sorts must equal the committed
# BENCH_io.json row for row.  Each report is compared with
# `bench compare-metrics` in both directions, so the gate fails on fewer
# I/Os as well as on more: a change that moves any count refreshes the
# file on purpose, in a commit that says why.
#
# The rows: the nine sort-fence shapes of scripts/check.sh (in-memory
# runs, forward and reverse-scan external roots, fragment merges with
# the stack windows taken, depth-limited copies, resident and suspended
# run readers), the deep smoke shape at -M 8 -t 1024 (the output
# traversal takes the idle stack windows there), the flat document
# under --encoding dict, and two baselines that reach the generic
# external sort directly: key-path merge sort at -M 8 (102 runs, three
# merge passes) and one-level XSort (one spilled child sort).  Two rows
# reach the runs through the other consumers: the deep shape under
# --no-fuse (the root run streamed by Pipe.of_run), and a fused xmlmerge
# of two deep documents (the traversal through Sorter.open_stream; its
# report's io section carries each sort's I/O).  A merge row names its
# two documents as A+B.
#
#   scripts/io_fence.sh            compare against BENCH_io.json
#   scripts/io_fence.sh --update   rewrite BENCH_io.json from this tree
set -eu

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

update=0
case "${1:-}" in
  --update) update=1 ;;
  "") ;;
  *) echo "usage: $0 [--update]" >&2; exit 2 ;;
esac

dune build bin/xmlgen_cli.exe bin/nexsort_cli.exe bin/xmlmerge_cli.exe bench/main.exe
gen=_build/default/bin/xmlgen_cli.exe
nex=_build/default/bin/nexsort_cli.exe
mrg=_build/default/bin/xmlmerge_cli.exe
bench=_build/default/bench/main.exe

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$gen --seed 7 --fanouts 8,8,8,5 --avg-bytes 120 -o $tmp/doc.xml > /dev/null 2>&1
$gen --seed 7 --fanouts 3000 --avg-bytes 120 -o $tmp/flat.xml > /dev/null 2>&1
$gen --seed 1 --fanouts 6,6,6,4,2,2 -o $tmp/deep.xml > /dev/null 2>&1
$gen --seed 2 --fanouts 6,6,6,4,2,2 -o $tmp/deep2.xml > /dev/null 2>&1
$gen --seed 9 --fanouts 3,1500 --avg-bytes 120 -o $tmp/f31500.xml > /dev/null 2>&1

rows=""
while read -r name doc args; do
  # (stdin is the row list: keep it from the commands)
  case $doc in
    *+*) $mrg $args --metrics $tmp/$name.json -o $tmp/$name.xml $tmp/${doc%+*} $tmp/${doc#*+} \
           < /dev/null > /dev/null 2>&1 ;;
    *) $nex $args --metrics $tmp/$name.json -o $tmp/$name.xml $tmp/$doc < /dev/null > /dev/null ;;
  esac
  rows="$rows $name=$tmp/$name.json"
  if [ $update -eq 0 ]; then
    $bench compare-metrics "BENCH_io.json#$name" $tmp/$name.json > /dev/null \
      && $bench compare-metrics $tmp/$name.json "BENCH_io.json#$name" > /dev/null \
      || { echo "io fence: $name ($doc $args) moved off BENCH_io.json" >&2; exit 1; }
  fi
done <<ROWS
doc-id doc.xml -B 1024 -M 16 -O @id
doc-external-id doc.xml -B 1024 -M 16 -t 100000000 --no-degeneration -O @id
doc-external-text doc.xml -B 1024 -M 16 -t 100000000 --no-degeneration -O text
flat-id flat.xml -B 1024 -M 16 -O @id
f31500-id f31500.xml -B 1024 -M 16 -O @id
f31500-nodegen-id f31500.xml -B 1024 -M 16 --no-degeneration -O @id
f31500-nodegen-text f31500.xml -B 1024 -M 16 --no-degeneration -O text
f31500-depth1-id f31500.xml -B 1024 -M 16 --depth-limit 1 -O @id
deep-t1024-id deep.xml -B 1024 -M 16 -t 1024 -O @id
deep-m8-t1024-id deep.xml -B 1024 -M 8 -t 1024 -O @id
deep-t1024-nofuse-id deep.xml -B 1024 -M 16 -t 1024 --no-fuse -O @id
deep-merge-id deep.xml+deep2.xml -O @id
flat-dict flat.xml -B 1024 -M 16 -O @id --encoding dict
flat-mergesort flat.xml -B 1024 -M 8 -O @id -a mergesort
flat-xsort flat.xml -B 1024 -M 16 -O @id -a xsort --targets n1
ROWS

if [ $update -eq 1 ]; then
  # shellcheck disable=SC2086
  $bench collect-io BENCH_io.json $rows
  echo "io fence: wrote BENCH_io.json"
else
  echo "io fence: OK"
fi
