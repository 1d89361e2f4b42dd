# Local developer commands mirroring the CI pipeline (.github/workflows/ci.yml).
# `cargo test` at the workspace root only runs the umbrella crate's suites;
# CI also runs `--workspace`, clippy with denied warnings, and rustfmt —
# `just verify` runs the exact same set so green-local means green-CI.

# Everything CI's tier1 + lint + docs jobs run.
verify: tier1 workspace-tests lint fmt-check docs

# The tier-1 contract from ROADMAP.md.
tier1:
    cargo build --release
    cargo test -q

# The member-crate and vendored-stub suites CI runs on top of tier-1.
workspace-tests:
    cargo test --workspace -q

lint:
    cargo clippy --workspace --all-targets -- -D warnings

fmt-check:
    cargo fmt --check

fmt:
    cargo fmt

# The documentation gate: rustdoc with denied warnings (broken intra-doc
# links fail) over the first-party crates, plus every doctest in the
# workspace. Vendored stubs are excluded — they document external APIs.
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p rmatc -p rmatc-core -p rmatc-clampi -p rmatc-rma -p rmatc-graph -p rmatc-tric -p rmatc-bench
    cargo test --workspace --doc -q

# The repo benchmark (BENCHMARK.json's command, suite mode): every workload,
# untraced then traced, one fresh process per pass; prints every metric by
# name and writes benchmark/out/results.json. See benchmark/README.md.
bench-e2e:
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --

# Fit this machine's kernel-crossover cost profile and persist it to the
# default profile path (RMATC_PROFILE or ~/.cache/rmatc/). See docs/TUNING.md.
calibrate:
    cargo run --release -p rmatc-bench --bin rmatc-calibrate

# The chaos suite on its pinned seed matrix plus one extra seed (random by
# default: `just chaos`, or pinned: `just chaos 12345` to replay a failure
# from a CI artifact name). See docs/ROBUSTNESS.md.
chaos seed="random":
    #!/usr/bin/env bash
    set -euo pipefail
    seed="{{seed}}"
    if [ "$seed" = "random" ]; then
        seed=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')
    fi
    echo "chaos seed: $seed"
    RMATC_CHAOS_SEED="$seed" cargo test -q --test chaos

# The bench-smoke job: JSON snapshots plus an appended bench-history record,
# then the regression gate (median regression past the per-benchmark
# threshold fails; default 15%). Each bench runs 3 times and records the
# median-of-medians with its spread, so one noisy run cannot move the gate.
#
# `hist` is the history directory: locally the repository-seeded
# `bench-history/`, in CI the artifact-chained `ci-bench-history/` — CI runs
# exactly `just bench-smoke ci-bench-history`, so this recipe is the single
# definition of which benches are smoked and gated.
bench-smoke hist="bench-history":
    cargo bench -p rmatc-bench --bench intersect -- --repeat 3 --json BENCH_intersect.json --history {{hist}}/intersect.ndjson
    cargo bench -p rmatc-bench --bench local_lcc -- --repeat 3 --json BENCH_local_lcc.json --history {{hist}}/local_lcc.ndjson
    RMATC_THREADS=4 cargo bench -p rmatc-bench --bench remote_read -- --repeat 3 --json BENCH_remote_read.json --history {{hist}}/remote_read.ndjson
    cargo bench -p rmatc-bench --bench cache_policy -- --repeat 3 --json BENCH_cache_policy.json --history {{hist}}/cache_policy.ndjson
    cargo bench -p rmatc-bench --bench service -- --repeat 3 --json BENCH_service.json --history {{hist}}/service.ndjson
    cargo run -p rmatc-bench --bin bench-diff -- {{hist}}/intersect.ndjson {{hist}}/local_lcc.ndjson {{hist}}/remote_read.ndjson {{hist}}/cache_policy.ndjson {{hist}}/service.ndjson
