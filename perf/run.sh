#!/bin/sh
# Build nexperf and the binaries it drives from the sources in this
# checkout, then hand every argument to `nexperf run`.  Run it from the
# repository root:
#
#   sh perf/run.sh --workload deep --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the run's
# JSON verdict.  The dune cache stays off: nothing is written outside
# the checkout.
set -eu
DUNE_CACHE=disabled dune build --root . \
  ./perf/nexperf.exe ./perf/nexperf_spawn.exe ./perf/nexperf_probe.exe \
  ./bin/nexsort_cli.exe ./bin/xmlmerge_cli.exe ./bin/nexsortd.exe 1>&2
exec ./_build/default/perf/nexperf.exe run "$@"
