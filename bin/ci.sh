#!/bin/sh
# CI entry point: formatting gate (dune files; ocamlformat is not required
# in the image), full build, then the complete test suite.
set -eux

cd "$(dirname "$0")/.."

dune build @fmt
dune build
dune runtest

# Second pass with the MUST-style correctness checker forced to its
# strictest level via the environment: every suite (examples sweep,
# overhead profiling equality, property schedules) must stay green with
# full deadlock/ordering/leak checking enabled.
MPISIM_CHECK=communication dune runtest --force

# Third pass with event tracing forced on: the recorder must be a pure
# observer, so every suite (including the bit-exact determinism and
# profiling-equality tests) must stay green while recording.
MPISIM_TRACE=1 dune runtest --force

# Trace-experiment smoke test: traces fig8 + fig10, asserts the critical
# path covers the whole run, writes BENCH_trace.json and re-parses it
# through lib/serde (validation is built into the experiment; a failed
# check exits non-zero).
dune exec bench/main.exe -- trace
test -s BENCH_trace.json

# Checkpoint/restart smoke test: interval x failure-rate sweep over the
# restartable apps; the experiment self-validates recovered-vs-reference
# bit-identity, Daly-interval minimality and the <10% overhead bound,
# and exits non-zero on any violation.
dune exec bench/main.exe -- ckpt
test -s BENCH_ckpt.json

# Fourth pass under randomized schedule exploration (lib/explore): every
# Mpi.run in the whole suite takes its don't-care decisions (same-time
# event order, wildcard matching, wait-any completion) from a seeded RNG,
# with the checker again at its strictest level.  A fixed seed keeps the
# pass reproducible; bump it deliberately, not per-run.
MPISIM_EXPLORE=random:42 MPISIM_CHECK=communication dune runtest --force

# Mutation smoke as a hard gate: the explore suite re-introduces the PR-4
# Daly-divergence bug behind a test-only flag and fails unless random
# exploration finds it and shrinks the counterexample (see
# test/test_explore.ml).
dune exec test/test_main.exe -- test explore

# Exploration-overhead smoke: Default-strategy hooks must be a pure
# observer (bit-identical simulated time, events and profile) and random
# schedules must agree on the workload's result; self-validating.
dune exec bench/main.exe -- explore
test -s BENCH_explore.json

# Fifth pass: request-serving smoke (lib/serve).  The batching sweep,
# caching and rebalancing comparisons, and the chaos run (jitter + a
# mid-run kill recovered through lib/ckpt) all self-validate against the
# host-side workload oracle: BENCH_serving.json is re-read and every
# entry of its "checks" object must be true, else the experiment exits
# non-zero.
dune exec bench/main.exe -- serving
test -s BENCH_serving.json

# Sixth pass: engine scale smoke.  The synthetic halo exchange runs on
# the frozen pre-refactor engine (binary heap, boxed entries, unpruned
# fibers) and the calendar-queue engine; BENCH_engine.json is re-read
# and every entry of its "checks" object must be true — the >=5x
# speedup at p=4096 (median of alternating legacy/calendar pairs), the
# events/sec floor, flat ranks-scaling through p=16384 inside the time
# budget, jitter-free (all ranks tied) throughput within 2x of jittered
# at p in {1024, 4096, 16384}, the zero-alloc steady state, and the
# profiler-off-vs-fine pure-observer equality — else the experiment
# exits non-zero.
dune exec bench/main.exe -- engine
test -s BENCH_engine.json

# Seventh pass: the MPI-4 surface.  The persistent/partitioned gallery
# example (persistent halo swap + partitioned gather, self-comparing
# against the ephemeral transport) must run clean under the strict
# communication checker, then the mpi4 benchmark gates on
# BENCH_mpi4.json: >=1.15x serving throughput on persistent channels
# with oracle-exact stores, idle handles invisible in the profile, and
# bit-identical transports across 20 random schedules — every entry of
# the "checks" object must be true, else the experiment exits non-zero.
MPISIM_CHECK=communication dune exec examples/persistent_halo.exe
dune exec bench/main.exe -- mpi4
test -s BENCH_mpi4.json

# Eighth pass: topology-aware collectives.  The schedule-exploration
# suite (which digest-checks the whole example gallery over >=20 random
# schedules) reruns on a two-tier fabric supplied via the environment,
# with the checker at its strictest level — hierarchical candidates are
# live and every digest must match the flat schedule's — plus the
# dedicated topology suite (spec parsing, tier routing, uplink
# congestion, split_by_node, autotune round-trips, and the differential
# bit-identity property).  Then the collectives bench gates on
# BENCH_collectives.json: on a scattered 48-ranks/node fabric at p=192
# the auto-tuned tables must beat the flat defaults >=1.2x on bcast and
# allreduce, predicted crossovers must land within one sweep step of
# the simulated ones, and the installed pin table must dispatch the
# predicted winner — every entry of the "checks" object must be true,
# else the experiment exits non-zero.
MPISIM_TOPOLOGY=two:4 MPISIM_CHECK=communication dune exec test/test_main.exe -- test explore
MPISIM_CHECK=communication dune exec test/test_main.exe -- test topology
dune exec bench/main.exe -- colltuning
test -s BENCH_collectives.json

# Ninth pass: the scenario gallery.  The three differential workloads
# (PageRank/CC over the generator families, the CG stencil solver over
# its three halo transports, streaming windowed analytics over the
# aggregator) run end-to-end under a randomized explore schedule with
# the communication checker raised — each example internally proves
# variant/transport bit-identity, oracle equality and kill-recovery,
# and fails non-zero on any divergence.  The scenarios suite adds the
# property sweep (degenerate process grids, zero-iteration solves) and
# the chaos regressions (explorer-drawn kills with replayable tokens).
# Then the apps bench gates on BENCH_apps.json: every entry of its
# "checks" object (variant/transport/oracle exactness, p2p-vs-
# persistent noise band) must be true, else the experiment exits
# non-zero.
MPISIM_EXPLORE=random:42 MPISIM_CHECK=communication dune exec examples/graph_analytics.exe
MPISIM_EXPLORE=random:42 MPISIM_CHECK=communication dune exec examples/cg_solver.exe
MPISIM_EXPLORE=random:42 MPISIM_CHECK=communication dune exec examples/stream_windows.exe
MPISIM_CHECK=communication dune exec test/test_main.exe -- test scenarios
dune exec bench/main.exe -- apps
test -s BENCH_apps.json

# Tenth pass: the host-cost benchmark's traced run as a gate.  With
# --trace 1 the benchmark checks observer purity (checker, recorder and
# host profiler change no simulated result), the zero-overhead
# differential against the plain-MPI variant and the closure of the
# per-layer attribution, at p=2048 (lockstep) and p=256 (sort_fig8,
# bfs_sparse).
# The output is echoed; the pass fails unless its result line (the last
# line) says "correct": true.
for workload in lockstep sort_fig8 bfs_sparse; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 25 --trace 1 |
    python3 -c 'import json, sys
out = sys.stdin.read().splitlines()
print("\n".join(out))
sys.exit(0 if out and json.loads(out[-1])["correct"] is True else 1)'
done
