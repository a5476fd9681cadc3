#!/usr/bin/env bash
# Tier-1 gate: build, test, and lint the whole workspace.
#
# Note the explicit --workspace everywhere: the repo root is both a
# workspace and a package (the `sat-repro` facade), so a bare
# `cargo build` / `cargo test` / `cargo clippy` silently covers only the
# facade and its path dependencies — crates like sat-cli are skipped and
# their binaries go stale.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test --workspace -q
cargo clippy --all-targets --workspace -- -D warnings

# The benchmark package (satbench/) builds against crates/core and
# crates/gpu-sim by path but sits outside the workspace, so a library API
# change can break it without any --workspace step noticing. Its
# self-tests compile the whole benchmark.
cargo test --release --offline --manifest-path satbench/Cargo.toml

# Scalar-vs-batched accounting parity: every bulk fast path (warp
# transactions, windowed look-back) must charge exactly what its scalar
# expansion charges, for all eight kernels under every dispatch order.
# Also part of `cargo test --workspace`; run standalone in release so a
# parity break is named directly in the tier-1 log.
cargo test --release -q --test counter_parity

# The same parity suite with the vectorized host paths disabled
# (GPU_SIM_NO_VECTOR=1 forces the scalar loops everywhere, not just in
# the tests that opt in via force_scalar). The 8-way unrolled fast paths
# in gpu-sim/src/simd.rs must be a pure host-speed change: if scalar and
# vector runs ever charge differently, one of these two runs fails.
GPU_SIM_NO_VECTOR=1 cargo test --release -q --test counter_parity

# The same parity suite again with parked flag waits disabled
# (GPU_SIM_NO_PARK=1 restores the legacy spin/yield/sleep ladder, the
# way GPU_SIM_NO_VECTOR forces the scalar loops). Parking must be a pure
# host-scheduling change: deterministic counters and outputs are charged
# identically whether a wait parked on a condvar stripe or spun, and
# tests/parking.rs asserts the same equality in-process in both
# directions.
GPU_SIM_NO_PARK=1 cargo test --release -q --test counter_parity

# Counter-drift smoke: a quick filtered bench-json run against the
# committed baseline. Any accounting drift (or serial-vs-streamed
# divergence in the batch pipeline) makes bench-json exit nonzero via
# all_counters_match:false, failing tier-1 without running the full sweep.
# The wall-clock floors are disabled here (--reps 1 on a shared CI host is
# noise); the deterministic bench-compare below carries the perf gate.
./target/release/sat-cli bench-json --algs skss_lb,2r1w --sizes 1024 --reps 1 \
  --baseline BENCH_1.json --throughput --batch 16 --batch-n 32 --out /dev/null \
  --perf-floor 0 --conc-floor 0

# Perf floor on the committed records: every (alg, n, mode) point of
# BENCH_4 must hold the floor ratio of the baseline's Melem/s, with
# matching deterministic counters (sequential bit-exact). Offline
# comparison of two checked-in files — no re-measurement, so it cannot
# flake on host load. The baseline is BENCH_3_rehost.json (the BENCH_3
# code re-measured on the same host that recorded BENCH_4): the committed
# BENCH_3.json was recorded on a host with ~3x the large-n memory
# bandwidth (its untouched duplication row alone is unreachable here), so
# comparing against it would gate on the machine, not the code. Floor 0.8
# rather than 0.9 because full-sweep wall numbers on the 1-core box move
# +-15% run to run (EXPERIMENTS.md, "Host-overhead reduction").
./target/release/sat-cli bench-compare results/BENCH_3_rehost.json BENCH_4.json --floor 0.8

# Same offline gate one PR forward: BENCH_5 (shuffle-only skss_sh +
# vectorized host hot paths) against BENCH_4, plus the streamed-batch
# throughput floor — BENCH_5's recorded `throughput.speedup` (streamed
# vs serial images/s) must hold 1.3x, the regression ROADMAP item 5
# existed to close. Absolute floor on the new document, not a ratio to
# the old one: images/s over serial is a property the batch path must
# keep delivering.
./target/release/sat-cli bench-compare BENCH_4.json BENCH_5.json --floor 0.8 \
  --throughput-floor 1.3

# Multi-device smoke: a tiny 2-device sharded batch on the smallest device
# config. bench-json exits nonzero if the group's deterministic counters
# diverge from the single-device serial batch (all_counters_match:false)
# or if the best group models below serial-equivalent throughput
# (multi_device_regression:true).
./target/release/sat-cli bench-json --algs none --sizes 64 --reps 2 --warmup 1 \
  --w 8 --device tiny --throughput --batch 12 --batch-n 16 --devices 1,2 \
  --out /dev/null

# Cooperative-scaling floor on the committed record: every 2-device
# cooperative huge-image point of BENCH_6 must model at least 1.5x one
# device (BENCH_6 records 1.76-1.86x; 2.0x is ideal, band-boundary carry
# kernels cost the rest). The gate is absolute on the *new* document —
# passing BENCH_6 on both sides is not a self-comparing no-op, it checks
# the checked-in record still clears the floor and that the sweep is
# present at all. Cooperative correctness itself (bit-identical SAT and
# counters across device counts) is covered by `cargo test --workspace`
# (satcore::coop unit tests, tests/multi_device.rs,
# tests/scheduling_parity.rs); re-recording the 16K/32K sweep takes
# minutes and stays offline here for the same no-flake reason as above.
./target/release/sat-cli bench-compare BENCH_6.json BENCH_6.json --coop-floor 1.5

# Host wall-clock floor across the parked-waits PR: BENCH_7 (parked flag
# waits + worker-token handoff) against BENCH_6. --wall-floor gates the
# tentpole claim directly: for every cooperative (alg, n) the *widest*
# BENCH_7 point (4 devices) must run at least 0.9x as fast on the host
# as the *best* BENCH_6 point at any device count — under spinning, the
# 4-device points cost 1.2-3x the best (EXPERIMENTS.md BENCH_7 table);
# parked waits bring every one of them to the old best give or take the
# 1-core box's documented +-15% wall noise (hence 0.9, same margin as
# the --floor 0.8 gates above). The modeled coop floor is re-checked on
# BENCH_7 too.
./target/release/sat-cli bench-compare BENCH_6.json BENCH_7.json --coop-floor 1.5 \
  --wall-floor 0.9

# The scheduling-parity suite with persistent resident drivers disabled
# (GPU_SIM_NO_PERSISTENT=1 forces the per-band-launch path everywhere),
# alongside the usual counter parity. Resident execution must be a pure
# host-scheduling change: tests/scheduling_parity.rs asserts in-process
# that the persistent and per-band paths charge bit-identical
# deterministic counters; this run proves the whole suite also passes
# with the kill switch thrown, so a revert-by-env-var is always safe.
GPU_SIM_NO_PERSISTENT=1 cargo test --release -q --test counter_parity \
  --test scheduling_parity

# Host wall-clock + host-efficiency floors across the persistent-grid PR:
# BENCH_8 (resident lane drivers, event-driven steal waits, fused
# tile-load/store kernels) against BENCH_7. --wall-floor 1.0: for every
# cooperative (alg, n) the widest BENCH_8 point must be at least as fast
# on the host as the best BENCH_7 point at any device count. --eff-floor
# gates the tentpole claim: best host_efficiency over device counts per
# (alg, n) must hold the ratio against BENCH_7's best. The floor is 1.4,
# not the 3x ROADMAP item 2 hoped for: host_efficiency divides modeled
# device time by host wall, and the best points' walls are within ~2x of
# the recording box's DRAM floor — tripling them is physically off the
# table (EXPERIMENTS.md, "Persistent cooperative grids" has the
# arithmetic). Measured best-vs-best ratios are 1.77-2.18x in the
# committed record and dipped to 1.68x across repeat recordings, so 1.4
# sits >=20% under the worst observed ratio. Recording command
# (identical flags to BENCH_7), for re-baselining:
#   ./target/release/sat-cli bench-json --huge 16384,32768 --devices 1,2,4 \
#     --repeat 4 --out BENCH_8.json
./target/release/sat-cli bench-compare BENCH_7.json BENCH_8.json --coop-floor 1.5 \
  --wall-floor 1.0 --eff-floor 1.4
