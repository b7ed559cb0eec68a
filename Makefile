# Convenience entry points; dune is the real build system.

.PHONY: all build test check lint bench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate plus a smoke run of the parallel path: the full quick-mode
# registry fanned out over a 2-worker domain pool must still pass every
# shape check (results are identical to --jobs 1 by construction), a
# metrics smoke test (an instrumented run must emit a snapshot that the
# obs parser accepts), a trace smoke test (a traced run must emit a
# Chrome trace-event file that the tracer validator accepts), and a
# non-grid engine smoke: the continuum space instance of the shared
# engine must run end to end from the CLI. The series smoke writes a
# run's per-step series with --series and a stride-1 one with
# --trace-out (grid and continuum) and has validate-metrics re-check
# each, including the engine's trajectory invariants; an unwritable
# output path must be a usage error (exit 2, "cannot write"). The fault smoke runs one
# loss + churn plan through --faults end to end, then asserts the
# fault sweep F1 is byte-identical at --jobs 1 and --jobs 2 (fault
# draws live in their own streams, so worker count can never leak into
# results). The big-k smoke exercises the SoA/Morton data plane at
# population scale (65536 agents, step-capped) with a metrics snapshot
# the obs parser accepts; the engine's components are checked against
# brute-force oracles in test_simulation and test_engine instead. The
# size smokes feed a radius, a side and an agent count beyond the
# engine's limits (each once crashed a run) and expect exit 2 with a
# diagnostic; the huge-side smokes run the largest accepted sides at
# radius 0 under a 2 GB address-space limit (the radius-0 index once
# allocated a table per grid cell and ran out of memory there), and
# side 16384 at radius 1, whose bucket table would need 6 GiB, must be
# refused (exit 2) rather than run out of memory; so must a floor plan
# of side 16384, which allocates per node, while one of side 4096 still
# runs there. The exchange pins
# fix the step counts of exchange paths no golden covers: flooding at
# r = 1, on a torus, for gossip (k = 64, one rumor word, k = 130,
# three words, and dense_gossip's shape, side 64, k = 256, r = 2: four
# words and about 50 components a step) and over a lossy graph, and
# single-hop for one rumor and for gossip (as scenario cells). A sparse
# lossy radius-0 run on a side-512 grid (k/n below 0.001, a grid far
# larger than the radius-0 index's collision filter, two sort passes)
# pins the loss draws' pair order where most agents are alone. The
# dense-baseline pin runs Clementi et al.'s model (jump kernel, single-hop exchange) as
# an ordinary scenario cell and expects the 15 steps the golden test
# pins. The radius-0 pins fix the step counts of the clique-mode paths
# (one hop floods a node's group, no union-find) that no golden covers:
# frog and broadcast-cover flags, and single-hop cells for one rumor and
# for gossip; multi-source runs have no flag and are pinned in
# test_golden. The service smoke drives the job daemon over its socket:
# double-submit byte-identity with cache-served metrics, then kill -9
# mid-sweep and a byte-identical checkpoint resume. The flag-run smokes
# check that `simulate` flags compile through the scenario validator
# (invalid flag runs are usage errors, exit 2 with a diagnostic) and that
# a flag run and its one-cell --scenario twin take the same steps, on the
# grid and on a domain. The floor-plan and continuum-box smokes pin the
# step counts the retired `barrier` and `continuum` subcommands printed
# for the same runs (now `simulate --space domain --plan ...` and
# `simulate --space continuum --density ... --rc-mult ...`); a continuum
# density whose box exceeds the engine's limits, a Brownian step that
# underflows to 0, --density with --side or --rc-mult with -r, and a
# negative --trace or --render, are usage errors. `@bench/smoke` runs every benchmark workload at
# small scale, so an Obs/Service API change that breaks bench/suite fails
# here. The bench-check smokes compare a smoke-scale mobibench run with
# itself (exit 0), a run whose op_ms_p10 doubled (exit 1, REGRESSION), a
# truncated result line and a result whose op_ms_p10 value is a string
# (each exit 2, a file:line:col diagnostic). The lint
# gate keeps the determinism/concurrency/io/poly-compare/layering
# invariants machine-checked. `dune build @all` also builds
# examples/; the example smokes run all five, and pin museum_courier's
# radio-opaque row (its floor-plan runs call the engine directly).
check:
	dune build @all
	dune runtest
	$(MAKE) lint
	dune exec examples/quickstart.exe > /dev/null
	dune exec examples/vehicular_gossip.exe > /dev/null
	dune exec examples/wildlife_frog.exe > /dev/null
	dune exec examples/epidemic_predator.exe > /dev/null
	dune exec examples/museum_courier.exe | grep -Eq '^\| 3x3 wings +\| +3 \| yes +\| +1258\.00 \|$$'
	dune exec bin/mobisim.exe -- exp --quick --jobs 2
	dune exec bin/mobisim.exe -- exp E1 --quick --metrics /tmp/mobisim-metrics.json
	dune exec bin/mobisim.exe -- validate-metrics /tmp/mobisim-metrics.json
	dune exec bin/mobisim.exe -- simulate --side 32 -k 64 --trace-events /tmp/mobisim-trace.json
	dune exec bin/mobisim.exe -- validate-metrics /tmp/mobisim-trace.json
	dune exec bin/mobisim.exe -- simulate --space continuum --side 8 -k 16 -r 2
	dune exec bin/mobisim.exe -- simulate --side 16 -k 8 --series /tmp/mobisim-series.json
	dune exec bin/mobisim.exe -- validate-metrics /tmp/mobisim-series.json
	dune exec bin/mobisim.exe -- simulate --side 16 -k 8 --trace-out /tmp/mobisim-traj-grid.json
	dune exec bin/mobisim.exe -- validate-metrics /tmp/mobisim-traj-grid.json
	dune exec bin/mobisim.exe -- simulate --space continuum --side 8 -k 16 -r 2 --trace-out /tmp/mobisim-traj-cont.json
	dune exec bin/mobisim.exe -- validate-metrics /tmp/mobisim-traj-cont.json
	dune exec bin/mobisim.exe -- simulate --side 16 -k 8 --series /nonexistent-dir/x.json > /dev/null 2> /tmp/mobisim-unwritable.err; test $$? -eq 2
	grep -q 'cannot write' /tmp/mobisim-unwritable.err
	printf '{ "loss_p": 0.3, "churn": { "leave_p": 0.05, "return_p": 0.5 } }' > /tmp/mobisim-faults.json
	dune exec bin/mobisim.exe -- simulate --side 24 --agents 12 --radius 1 --faults /tmp/mobisim-faults.json
	dune exec bin/mobisim.exe -- exp F1 --quick --jobs 1 > /tmp/mobisim-faults-j1.out
	dune exec bin/mobisim.exe -- exp F1 --quick --jobs 2 > /tmp/mobisim-faults-j2.out
	cmp /tmp/mobisim-faults-j1.out /tmp/mobisim-faults-j2.out
	dune exec bin/mobisim.exe -- simulate --side 1024 -k 65536 -r 0 --max-steps 100 --metrics /tmp/mobisim-bigk.json
	dune exec bin/mobisim.exe -- validate-metrics /tmp/mobisim-bigk.json
	dune exec bin/mobisim.exe -- simulate --side 16 -k 2 -r 4611686018427387889 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && test -s /tmp/mobisim-bad.err
	printf '{ "side": 3037000500, "agents": 2 }' > /tmp/mobisim-big-side.json
	dune exec bin/mobisim.exe -- simulate --scenario /tmp/mobisim-big-side.json > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && test -s /tmp/mobisim-bad.err
	printf '{ "side": 16, "agents": 4611686018427387903 }' > /tmp/mobisim-big-k.json
	dune exec bin/mobisim.exe -- simulate --scenario /tmp/mobisim-big-k.json > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && test -s /tmp/mobisim-bad.err
	ulimit -v 2000000 && dune exec bin/mobisim.exe -- simulate --side 65536 -k 64 --max-steps 50 > /dev/null
	ulimit -v 2000000 && dune exec bin/mobisim.exe -- simulate --side 16384 -k 64 --max-steps 50 > /dev/null
	ulimit -v 2000000 && dune exec bin/mobisim.exe -- simulate --side 16384 -k 64 -r 1 --max-steps 50 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'needs a spatial index of' /tmp/mobisim-bad.err
	ulimit -v 2000000 && dune exec bin/mobisim.exe -- simulate --space domain --side 16384 -k 4 --max-steps 5 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'a floor plan of side 16384 has' /tmp/mobisim-bad.err
	ulimit -v 2000000 && dune exec bin/mobisim.exe -- simulate --space domain --side 4096 -k 4 --max-steps 5 > /dev/null
	ulimit -v 2000000 && dune exec bin/mobisim.exe -- percolation --side 70000 -k 2 --trials 1 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'side must be at most' /tmp/mobisim-bad.err
	ulimit -v 2000000 && dune exec bin/mobisim.exe -- percolation --side 16384 -k 2 --trials 1 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'needs a spatial index of' /tmp/mobisim-bad.err
	ulimit -v 2000000 && dune exec bin/mobisim.exe -- theory --side 70000 -k 2 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'side must be at most' /tmp/mobisim-bad.err
	dune exec bin/mobisim.exe -- simulate --space continuum --agents 0 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && test -s /tmp/mobisim-bad.err
	dune exec bin/mobisim.exe -- simulate --space domain --side 8 -k 4 --max-steps=-3 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && test -s /tmp/mobisim-bad.err
	dune exec bin/mobisim.exe -- simulate --space continuum --protocol gossip > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && test -s /tmp/mobisim-bad.err
	dune exec bin/mobisim.exe -- simulate --side 16 -k 8 -r 1 --seed 3 | grep -qx 'completed in 146 steps'
	printf '{ "side": 16, "agents": 8, "radius": 1, "seed": 3 }' > /tmp/mobisim-grid-cell.json
	dune exec bin/mobisim.exe -- simulate --scenario /tmp/mobisim-grid-cell.json | grep -q '"steps":146'
	dune exec bin/mobisim.exe -- simulate --side 32 -k 64 -r 1 --seed 5 | grep -qx 'completed in 207 steps'
	dune exec bin/mobisim.exe -- simulate --side 48 -k 96 --torus --seed 2 | grep -qx 'completed in 732 steps'
	dune exec bin/mobisim.exe -- simulate --side 32 -k 64 -r 2 --protocol gossip --seed 4 | grep -qx 'completed in 306 steps'
	dune exec bin/mobisim.exe -- simulate --side 32 -k 130 -r 2 --protocol gossip --seed 4 | grep -qx 'completed in 112 steps'
	dune exec bin/mobisim.exe -- simulate --side 64 -k 256 -r 2 --protocol gossip --seed 4 | grep -qx 'completed in 395 steps'
	dune exec bin/mobisim.exe -- simulate --side 32 -k 48 -r 1 --loss-p 0.3 --seed 6 | grep -qx 'completed in 315 steps'
	dune exec bin/mobisim.exe -- simulate --side 512 -k 256 -r 0 --loss-p 0.5 --seed 5 | grep -qx 'completed in 71622 steps'
	printf '{"side":32,"agents":64,"radius":1,"exchange":"single-hop","seed":5}' > /tmp/mobisim-single-hop.json
	dune exec bin/mobisim.exe -- simulate --scenario /tmp/mobisim-single-hop.json | grep -q '"steps":207'
	printf '{"side":32,"agents":64,"radius":2,"protocol":"gossip","exchange":"single-hop","seed":4}' > /tmp/mobisim-gossip-single-hop.json
	dune exec bin/mobisim.exe -- simulate --scenario /tmp/mobisim-gossip-single-hop.json | grep -q '"steps":306'
	printf '{"side":16,"agents":64,"radius":2,"kernel":"jump:2","exchange":"single-hop","seed":0,"max_steps":100000}' > /tmp/mobisim-dense.json
	dune exec bin/mobisim.exe -- simulate --scenario /tmp/mobisim-dense.json | grep -q '"steps":15,'
	dune exec bin/mobisim.exe -- simulate --side 32 -k 64 -r 0 --protocol frog --seed 3 | grep -qx 'completed in 845 steps'
	dune exec bin/mobisim.exe -- simulate --side 32 -k 64 -r 0 --protocol broadcast-cover --seed 3 | grep -qx 'completed in 873 steps'
	printf '{"side":32,"agents":64,"radius":0,"exchange":"single-hop","seed":3}' > /tmp/mobisim-r0-single-hop.json
	dune exec bin/mobisim.exe -- simulate --scenario /tmp/mobisim-r0-single-hop.json | grep -q '"steps":476'
	printf '{"side":16,"agents":16,"radius":0,"protocol":"gossip","exchange":"single-hop","seed":3}' > /tmp/mobisim-r0-gossip-single-hop.json
	dune exec bin/mobisim.exe -- simulate --scenario /tmp/mobisim-r0-gossip-single-hop.json | grep -q '"steps":572'
	dune exec bin/mobisim.exe -- simulate --space domain --side 12 -k 6 -r 1 --seed 2 | grep -qx 'completed in 89 steps'
	printf '{ "space": "domain", "side": 12, "agents": 6, "radius": 1, "seed": 2 }' > /tmp/mobisim-domain-cell.json
	dune exec bin/mobisim.exe -- simulate --scenario /tmp/mobisim-domain-cell.json | grep -q '"steps":89'
	dune exec bin/mobisim.exe -- simulate --space domain --plan wall:2 | grep -qx 'completed in 4506 steps'
	dune exec bin/mobisim.exe -- simulate --space domain --plan rooms:3:2 --side 24 -k 12 -r 1 | grep -qx 'completed in 511 steps'
	dune exec bin/mobisim.exe -- simulate --space domain --plan wall:2 --los-blocking -r 2 | grep -qx 'completed in 2382 steps'
	dune exec bin/mobisim.exe -- simulate --space continuum --density 1 --rc-mult 0.5 | grep -qx 'completed in 142 steps'
	dune exec bin/mobisim.exe -- simulate --space continuum -k 64 --density 0.5 --rc-mult 0.5 --sigma-frac 0.5 --seed 3 | grep -qx 'completed in 69 steps'
	dune exec bin/mobisim.exe -- simulate --space continuum -k 8 --density 1e-300 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && test -s /tmp/mobisim-bad.err
	dune exec bin/mobisim.exe -- simulate --space continuum --rc-mult 1e-170 --sigma-frac 1e-170 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'Brownian step 0' /tmp/mobisim-bad.err
	dune exec bin/mobisim.exe -- simulate --space continuum --side 64 --density 1 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'invalid arguments' /tmp/mobisim-bad.err
	dune exec bin/mobisim.exe -- simulate --space continuum -r 0 --rc-mult 1 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'invalid arguments' /tmp/mobisim-bad.err
	dune exec bin/mobisim.exe -- simulate --trace=-3 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'invalid arguments' /tmp/mobisim-bad.err
	dune exec bin/mobisim.exe -- simulate --render=-1 > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q 'invalid arguments' /tmp/mobisim-bad.err
	sh test/service_smoke.sh
	dune build @bench/smoke
	sh bench/suite/run.sh --workload sparse_r0 --scale smoke --seconds 1 --seed 3 > /tmp/mobisim-mb.out
	dune exec bin/mobisim.exe -- bench-check /tmp/mobisim-mb.out /tmp/mobisim-mb.out
	printf 'mobibench sparse_r0 seed=1 seconds=1 trace=0 scale=smoke\n{"correct":true,"attempted":6,"failed":0,"metrics":{"setup_s":{"value":0.001,"unit":"s"},"op_ms_p10":{"value":0.002,"unit":"ms"},"peak_rss_mb":{"value":5.0,"unit":"MB"}}}\n' > /tmp/mobisim-mb-old.out
	sed 's/"value":0.002/"value":0.004/' /tmp/mobisim-mb-old.out > /tmp/mobisim-mb-new.out
	dune exec bin/mobisim.exe -- bench-check /tmp/mobisim-mb-old.out /tmp/mobisim-mb-new.out > /tmp/mobisim-mb-check.out; test $$? -eq 1 && grep -q 'op_ms_p10 .* REGRESSION' /tmp/mobisim-mb-check.out
	printf 'mobibench sparse_r0 seed=1 seconds=1 trace=0 scale=smoke\n{"correct":true,"attem\n' > /tmp/mobisim-mb-trunc.out
	dune exec bin/mobisim.exe -- bench-check /tmp/mobisim-mb-old.out /tmp/mobisim-mb-trunc.out > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q '^/tmp/mobisim-mb-trunc.out:2:[0-9]*: ' /tmp/mobisim-bad.err
	sed 's/"value":0.002/"value":"fast"/' /tmp/mobisim-mb-old.out > /tmp/mobisim-mb-typed.out
	dune exec bin/mobisim.exe -- bench-check /tmp/mobisim-mb-old.out /tmp/mobisim-mb-typed.out > /dev/null 2> /tmp/mobisim-bad.err; test $$? -eq 2 && grep -q '^/tmp/mobisim-mb-typed.out:2:[0-9]*: op_ms_p10 value must be a number' /tmp/mobisim-bad.err

bench:
	sh bench/suite/run.sh

# Static analysis over the typed ASTs: forbidden-identifier scan
# (determinism + concurrency allowlists), polymorphic-compare detection,
# the lib/ layering DAG, the allocation-discipline + unsafe-access
# audit over the [@hot] call graph, and exports (.cmti) that no other
# lib/ or bin/ unit uses (.cmt). `@check` emits the .cmt files
# mobilint reads (a plain `dune build` skips executables' cmts). mobilint
# exits 2 (not 0) when it finds no .cmt files, so a broken build alias
# can never masquerade as a clean scan. The JSON round-trip exercises
# the report writer and the structural validator on every run.
lint:
	dune build @check bin/mobilint.exe
	dune exec bin/mobilint.exe --
	dune exec bin/mobilint.exe -- --rules alloc,unsafe
	dune exec bin/mobilint.exe -- --json /tmp/mobilint.json
	dune exec bin/mobilint.exe -- --validate /tmp/mobilint.json

clean:
	dune clean
