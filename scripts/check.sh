#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, release build, tests,
# and the benchmark's own tests and repeat run.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::disallowed-methods

echo "==> repo-lint (--locks: zero cycles, zero unranked locks, rank-table conformance)"
cargo run -q -p analyze --bin repo-lint -- --locks

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (default test parallelism, then one thread)"
cargo test --workspace -q
cargo test --workspace -q -- --test-threads=1

echo "==> cargo test --workspace -q --doc"
cargo test --workspace -q --doc

echo "==> tracing integration tests (span trees, disabled-path zero events)"
cargo test -q --test obs_tracing

echo "==> fault matrix (torn WAL, worker panics, breaker degradation)"
cargo test -q --test fault_injection

echo "==> segment round-trips (both backends, CRC corruption detection)"
cargo test -q --test segstore_roundtrip

echo "==> lock discipline (static/dynamic conformance, inversion drill)"
cargo test -q -p analyze --test lock_conformance
cargo test -q -p obs --test lock_discipline

echo "==> flight recorder drills (breaker/panic/stall/deadline dumps, black-box round-trip)"
cargo test -q --test flight_recorder

echo "==> SLO engine + burn-rate alerting"
cargo test -q -p obs slo

echo "==> rustdoc gate (olap + segstore, -D warnings, deny(missing_docs))"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p olap -p segstore

echo "==> replication chaos drills (kill/lag/truncate/torn-tail, proptest convergence)"
cargo test -q --test replication_chaos

echo "==> oplog unit suite (framing, torn-tail recovery, truncation, gap semantics)"
cargo test -q -p oplog

echo "==> ddbench's own tests (its frozen surface must still compile and its oracles agree)"
cargo test --release -q --manifest-path ddbench/Cargo.toml

echo "==> ddbench repeat --runs 3 (all five workloads, run-to-run agreement)"
cargo run --release -q --manifest-path ddbench/Cargo.toml -- repeat --runs 3

echo "All checks passed."
