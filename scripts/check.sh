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
# checked-in repro_output.txt byte for byte, apart from the lines tagged
# "wall-clock" (single-shot throughput measurements) and "host-cores"
# (E14's shard sweep tops out at the host core count). The file holds
# every experiment's digests and verdict lines, E15's pinned 632f581d on
# all six backends included, so a moved digest or count fails here; a
# change that moves one regenerates repro_output.txt in its own diff.
# repro writes BENCH_E14.json..BENCH_E17.json into its working
# directory, so it runs in a temporary directory.
root="$(pwd)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
echo "==> pinned output: repro all against repro_output.txt"
(cd "$tmpdir" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
    -p lateral-bench --bin repro -- all) > "$tmpdir/raw.txt"
grep -vE "wall-clock|host-cores" "$tmpdir/raw.txt" > "$tmpdir/got.txt"
grep -vE "wall-clock|host-cores" repro_output.txt > "$tmpdir/want.txt"
if ! cmp -s "$tmpdir/want.txt" "$tmpdir/got.txt"; then
    echo "repro all no longer matches repro_output.txt:" >&2
    diff "$tmpdir/want.txt" "$tmpdir/got.txt" >&2 || true
    exit 1
fi
# The timing lines are left out of the compare; each must still report.
for phrase in "invocations/sec" "round trips/sec" "readings/sec" \
    "proofs ingested/sec" "rounds/sec"; do
    if ! grep -q "$phrase" "$tmpdir/raw.txt"; then
        echo "repro all is missing its \"$phrase\" measurement" >&2
        exit 1
    fi
done

echo "==> all checks passed"
