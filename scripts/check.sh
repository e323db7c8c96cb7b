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

# The two workspace passes run every unit, integration and doc test of
# every member crate; no later step repeats a subset of them.
echo "==> cargo test --workspace -q (default test parallelism, then one thread)"
cargo test --workspace -q
cargo test --workspace -q -- --test-threads=1

echo "==> rustdoc gate (the whole workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> ddbench's own tests (its frozen surface must still compile and its oracles agree)"
cargo test --release -q --manifest-path ddbench/Cargo.toml

echo "==> ddbench repeat --runs 3 (all five workloads, run-to-run agreement)"
cargo run --release -q --manifest-path ddbench/Cargo.toml -- repeat --runs 3

echo "All checks passed."
