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
# optimised code too. The Z_p kernel's u128 column sums and carry chains
# panic on overflow in the debug run above but wrap silently here, so
# its differential test against the reference must pass in both.
echo "==> cargo test --release -q -p lateral-crypto"
cargo test --release -q -p lateral-crypto

# The fleet tick runs its shard lanes on threads; test the lanes, the
# split shard borrow and the pinned fleet outcomes as optimised code too.
# The bus and the MMU walk split ranges into page spans with offset
# arithmetic, the span stack closes spans by position, and the composer
# looks channels up by borrowed names. Debug overflow checks cover that
# arithmetic in the run above; release wraps silently, so the hardware,
# telemetry and composer tests run as optimised code too.
echo "==> cargo test --release -q -p lateral-apps -p lateral-substrate -p lateral-hw -p lateral-telemetry -p lateral-core"
cargo test --release -q -p lateral-apps -p lateral-substrate -p lateral-hw -p lateral-telemetry -p lateral-core
echo "==> cargo test --release -q --test sharded_fabric --test fleet_world"
cargo test --release -q --test sharded_fabric --test fleet_world

# The benchmark builds against the workspace crates by path; build and
# test it here so a change to a public item it uses fails the gate.
echo "==> cargo test --release -q --manifest-path perfbench/Cargo.toml"
cargo test --release -q --manifest-path perfbench/Cargo.toml

# Run each workload for two seconds: a library change that breaks one of
# perfbench's output checks (reply bytes, attestation counts, acked ==
# produced) fails here. The last line is the run's JSON summary.
for workload in invoke session fleet; do
    echo "==> perfbench --workload $workload --seed 1 --seconds 2 --trace 0"
    if ! out=$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0); then
        printf '%s\n' "$out"
        exit 1
    fi
    case $(printf '%s\n' "$out" | tail -n 1) in
    *'"correct": true,'*'"failed": 0,'*) ;;
    *)
        printf '%s\n' "$out"
        echo "perfbench $workload: output checks failed or operations failed" >&2
        exit 1
        ;;
    esac
done

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
