#!/usr/bin/env bash
# Full local gate: what CI runs, in the order a developer wants failures
# surfaced. Works fully offline — every external dependency resolves to
# a vendored path crate (see [workspace.dependencies] in Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cloudlet-analysis lint (policy rules R1-R5)"
cargo run -q -p cloudlet-analysis --bin lint

echo "==> cargo build --release"
cargo build --release

echo "==> perfbench builds against the current API and its lockfile"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q -p cloudlet-core --lib arbiter (fast arbiter gate)"
cargo test -q -p cloudlet-core --lib arbiter

echo "==> cargo test -q -p mobsim --lib flash (fast wear-model gate)"
cargo test -q -p mobsim --lib flash

echo "==> cargo test -q -p querylog --lib stream (fast event-stream gate)"
cargo test -q -p querylog --lib stream

echo "==> cargo test -q -p cloudlet-core --lib hashtable::atomic (fast hot-path gate)"
cargo test -q -p cloudlet-core --lib hashtable::atomic

echo "==> cargo test -q -p cloudlet-core --lib peer (fast peer-fabric gate)"
cargo test -q -p cloudlet-core --lib peer

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run --workspace (benches must compile)"
cargo bench --no-run --workspace --quiet

echo "==> two wall-clock benches end to end (exactly one time: line each)"
for target_and_name in "hashtable hashtable/lookup_miss" "flashdb_ops flashdb/apply_patch_nightly"; do
  read -r target name <<< "${target_and_name}"
  out="$(cargo bench -q -p pocket-bench --bench "${target}" -- "${name}")"
  lines="$(grep -c 'time: \[' <<< "${out}" || true)"
  if [[ "${lines}" != 1 ]]; then
    echo "${name}: expected exactly one time: line, got ${lines}:" >&2
    echo "${out}" >&2
    exit 1
  fi
done

echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> scripts/bench.sh --check (deterministic artifacts reproduce)"
scripts/bench.sh --check

echo "All checks passed."
