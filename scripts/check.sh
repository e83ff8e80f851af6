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

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# Run-twice determinism gate over the deterministic experiment suite.
# Each experiment runs twice and the outputs must be byte-identical —
# except lines tagged "wall-clock" (E13/E14 throughput measurements)
# and "host-cores" (E14's shard-count sweep tops out at the host core
# count), which are inherently machine-dependent and stripped before
# comparing. Per-experiment marker greps keep the reports honest about
# what they claim to have measured.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for exp in e10 e11 e12 e13 e14 e15 e16 e17 e18; do
    echo "==> determinism gate: $exp twice"
    cargo run --release -q -p lateral-bench --bin repro -- "$exp" > "$tmpdir/$exp-raw.txt"
    grep -vE "wall-clock|host-cores" "$tmpdir/$exp-raw.txt" > "$tmpdir/$exp-a.txt"
    cargo run --release -q -p lateral-bench --bin repro -- "$exp" \
        | grep -vE "wall-clock|host-cores" > "$tmpdir/$exp-b.txt"
    if ! cmp -s "$tmpdir/$exp-a.txt" "$tmpdir/$exp-b.txt"; then
        echo "DETERMINISM VIOLATION: two identical $exp runs diverged:" >&2
        diff "$tmpdir/$exp-a.txt" "$tmpdir/$exp-b.txt" >&2 || true
        exit 1
    fi
    case "$exp" in
    e11)
        if ! grep -q "registry-trace digest" "$tmpdir/$exp-a.txt"; then
            echo "E11 output is missing its registry-trace digest table" >&2
            exit 1
        fi
        ;;
    e12)
        if ! grep -q "telemetry digest" "$tmpdir/$exp-a.txt"; then
            echo "E12 output is missing its telemetry digests" >&2
            exit 1
        fi
        if grep -q "backend-invariant: NO" "$tmpdir/$exp-a.txt"; then
            echo "E12 telemetry digests diverged across backends" >&2
            exit 1
        fi
        ;;
    e13)
        if ! grep -q "invocations/sec" "$tmpdir/$exp-raw.txt"; then
            echo "E13 output is missing its throughput measurement" >&2
            exit 1
        fi
        if grep -q "backend-invariant: NO" "$tmpdir/$exp-a.txt"; then
            echo "E13 digests diverged across backends" >&2
            exit 1
        fi
        ;;
    e14)
        if ! grep -q "invocations/sec" "$tmpdir/$exp-raw.txt"; then
            echo "E14 output is missing its shard-scaling measurement" >&2
            exit 1
        fi
        if ! grep -q "round trips/sec" "$tmpdir/$exp-raw.txt"; then
            echo "E14 output is missing its cross-shard measurement" >&2
            exit 1
        fi
        if grep -q "backend-invariant: NO" "$tmpdir/$exp-a.txt"; then
            echo "E14 merged-trace digests diverged across backends" >&2
            exit 1
        fi
        ;;
    e15)
        if ! grep -q "readings/sec" "$tmpdir/$exp-raw.txt"; then
            echo "E15 output is missing its fleet throughput measurement" >&2
            exit 1
        fi
        if grep -q "backend-invariant: NO" "$tmpdir/$exp-a.txt"; then
            echo "E15 fleet-state digests diverged across backends" >&2
            exit 1
        fi
        # The pinned fleet-state digest: a change that moves it must
        # update this value (and EXPERIMENTS.md) in the open.
        for backend in software microkernel trustzone sgx sep flicker; do
            if ! grep -qE "^$backend .* 632f581d\$" "$tmpdir/$exp-a.txt"; then
                echo "E15 $backend fleet digest is not the pinned 632f581d" >&2
                exit 1
            fi
        done
        if ! test -f BENCH_E15.json; then
            echo "E15 did not write BENCH_E15.json" >&2
            exit 1
        fi
        ;;
    e16)
        if ! grep -q "proofs ingested/sec" "$tmpdir/$exp-raw.txt"; then
            echo "E16 output is missing its proof-ingest measurement" >&2
            exit 1
        fi
        if grep -q "backend-invariant: NO" "$tmpdir/$exp-a.txt"; then
            echo "E16 score digests diverged across backends" >&2
            exit 1
        fi
        if grep -q "identical: NO" "$tmpdir/$exp-a.txt"; then
            echo "E16 incremental recompute diverged from full" >&2
            exit 1
        fi
        if ! test -f BENCH_E16.json; then
            echo "E16 did not write BENCH_E16.json" >&2
            exit 1
        fi
        ;;
    e17)
        if ! grep -q "rounds/sec" "$tmpdir/$exp-raw.txt"; then
            echo "E17 output is missing its wall-clock measurement" >&2
            exit 1
        fi
        if grep -q "backend-invariant: NO" "$tmpdir/$exp-a.txt"; then
            echo "E17 placement decisions diverged across backends" >&2
            exit 1
        fi
        if grep -qE "VIOLATION|DIVERGED" "$tmpdir/$exp-a.txt"; then
            echo "E17 live migration violated POLA or lost state" >&2
            exit 1
        fi
        if ! test -f BENCH_E17.json; then
            echo "E17 did not write BENCH_E17.json" >&2
            exit 1
        fi
        ;;
    e18)
        if ! grep -q "requests/sec" "$tmpdir/$exp-raw.txt"; then
            echo "E18 output is missing its throughput measurement" >&2
            exit 1
        fi
        if grep -q "backend-invariant: NO" "$tmpdir/$exp-a.txt"; then
            echo "E18 session digests diverged across backends" >&2
            exit 1
        fi
        if grep -q "conserved: NO" "$tmpdir/$exp-a.txt"; then
            echo "E18 mirror failover lost a fetch" >&2
            exit 1
        fi
        if grep -q "rotated: NO" "$tmpdir/$exp-a.txt"; then
            echo "E18 resumption failed to rotate the ticket" >&2
            exit 1
        fi
        if ! test -f BENCH_E18.json; then
            echo "E18 did not write BENCH_E18.json" >&2
            exit 1
        fi
        ;;
    esac
done

echo "==> all checks passed"
