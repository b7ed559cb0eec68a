#!/bin/sh
# Build mobibench and the mobisim binary it drives, then run it with the
# given arguments, from the root of a source checkout:
#   sh bench/suite/run.sh --workload sparse_r0 --seed 1 --seconds 10 --trace 0
set -eu
# no shared dune cache: the build writes only under _build here
DUNE_CACHE=disabled dune build --root . bench/suite/mobibench.exe bin/mobisim.exe 1>&2
exec ./_build/default/bench/suite/mobibench.exe "$@"
