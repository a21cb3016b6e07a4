#!/usr/bin/env bash
# Repo-wide pre-merge checks. Offline-friendly: everything here builds
# against the vendored dependency stubs, no network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings, flag redundant clones)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone

echo "== cargo build --release"
cargo build --release --workspace

echo "== perfbench builds against the public API (its own workspace)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test"
cargo test --workspace -q

echo "== bench smoke (each point runs once; no BENCH_*.json may change)"
bench_sums=$(cksum BENCH_*.json)
cargo test -q -p attain-bench --benches
if [ "$(cksum BENCH_*.json)" != "$bench_sums" ]; then
  echo "cargo test --benches rewrote a checked-in BENCH_*.json" >&2
  exit 1
fi

echo "== environment-fault suite (incl. trace determinism)"
cargo test -q -p attain-netsim --test faults
cargo test -q -p attain-netsim --test faults same_seed_same_trace_different_seed_may_differ

echo "== rule dispatcher differential suite (scan ≡ compiled)"
cargo test -q -p attain-core --test proptest_dispatch

echo "== timing-observable differential suite (scan ≡ compiled, incl. no-sample paths)"
cargo test -q -p attain-core --test proptest_timing

echo "== controller fingerprinting (classification accuracy + confusion matrix)"
cargo test -q -p attain-campaign --test fingerprint

echo "== flow-table eviction differential suite + capacity inference"
cargo test -q -p attain-netsim --test proptest_netsim
cargo test -q -p attain-netsim --test capacity_inference

echo "== conformance campaign (smoke matrix + golden digests, audited dispatch)"
cargo run --release --bin campaign --features attain-campaign/dispatch_audit \
  -- --smoke --jobs 2 --out target/CAMPAIGN_smoke_report.json
cargo test -q -p attain --test campaign_conformance
cargo test -q -p attain --test dsl_roundtrip

echo "== determinism suite (scale scenarios reproduce their golden fingerprints)"
cargo test -q -p attain-netsim --test scale_determinism

echo "== scalability smoke (fat-tree k=4, capped event budget; exits non-zero unless every row reaches its horizon)"
cargo run --release -p attain-bench --bin scalability \
  -- --smoke --max-events 2000000 --json target/BENCH_scalability_smoke.json

echo "== supervised execution (chaos cells contained, degraded-mode report)"
cargo test -q -p attain-campaign --features test_faults
if cargo run --release --bin campaign --features test_faults \
    -- --smoke --jobs 2 --cell-timeout 60 \
    --out target/CAMPAIGN_chaos_report.json 2>/dev/null; then
  echo "chaos smoke campaign unexpectedly exited zero" >&2
  exit 1
fi
grep -q '"status": "panicked"' target/CAMPAIGN_chaos_report.json
grep -q '"status": "budget-exhausted"' target/CAMPAIGN_chaos_report.json
grep -q '"verdict": "unjudged"' target/CAMPAIGN_chaos_report.json

echo "all checks passed"
