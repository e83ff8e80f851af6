#!/usr/bin/env sh
# Full local gate: everything CI would run, in the order that fails
# fastest. Run from the repository root:
#
#   sh scripts/check.sh
set -eu

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The crypto kernels pick their code path at run time; test them as
# optimised code too.
echo "==> cargo test --release -q -p lateral-crypto"
cargo test --release -q -p lateral-crypto

# The benchmark builds against the workspace crates by path; build and
# test it here so a change to a public item it uses fails the gate.
echo "==> cargo test --release -q --manifest-path perfbench/Cargo.toml"
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# Docs are part of the API: a link to a deleted or private item fails.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The behavioural contract. One release `repro all` must reproduce the
# checked-in repro_output.txt byte for byte (diff: < pinned, > got). The
# file holds every experiment's digests, counts and verdict lines, E15's
# pinned 632f581d on all six backends included, so a moved digest or
# count fails here; a change that moves one regenerates repro_output.txt
# in its own diff.
echo "==> pinned output: repro all against repro_output.txt"
cargo run --release -q -p lateral-bench --bin repro -- all | diff repro_output.txt -

echo "==> all checks passed"
