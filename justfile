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

# AddressSanitizer (nightly only: -Zsanitizer is unstable) over the cache and
# RMA lib suites, rmatc-core's unit tests (the SIMD block steps'
# lane-boundary tests, the galloping and compressed decoders), the kernel
# tests, and the zero-copy suite, where faulted reads land, are corrupted in
# place and meet the cache. The explicit
# --target keeps the sanitizer off build scripts and proc macros and gives the
# instrumented build its own directory under target/.
asan:
    #!/usr/bin/env bash
    set -euo pipefail
    export RUSTFLAGS=-Zsanitizer=address
    asan="cargo +nightly test -q --target x86_64-unknown-linux-gnu"
    $asan -p rmatc-clampi -p rmatc-rma --lib
    $asan -p rmatc-core --lib
    $asan --test kernels --test properties --test zero_copy

# Mutation checks: each `mutants/<name>.patch` is a small break of the
# library whose `kill:` header line names, as `cargo test` arguments, the test
# that must fail under it. Exports the committed tree (`git archive HEAD`, as
# `bench-ab` does) into target/mutants/, applies each patch in turn, builds
# and runs its test, and fails if a patch no longer applies, a mutant does not
# build, or its test passes. A change that moves the patched code re-makes
# the patch.
mutants:
    #!/usr/bin/env bash
    set -euo pipefail
    root=$(pwd)
    work="$root/target/mutants"
    rm -rf "$work/tree"
    mkdir -p "$work/tree"
    git archive HEAD | tar -x -C "$work/tree"
    # Its own repository, so `git apply` takes the patch paths from its root.
    git -C "$work/tree" init -q
    export CARGO_TARGET_DIR="$work/target"
    failed=0
    for patch in "$root"/mutants/*.patch; do
        name=$(basename "$patch" .patch)
        read -r -a kill <<< "$(sed -n 's/^kill: //p' "$patch")"
        if [ "${#kill[@]}" -eq 0 ]; then
            echo "mutant $name: no kill: line"; failed=1; continue
        fi
        if ! git -C "$work/tree" apply "$patch"; then
            echo "mutant $name: patch no longer applies"; failed=1; continue
        fi
        if ! (cd "$work/tree" && cargo test -q --no-run "${kill[@]}") > "$work/$name.log" 2>&1; then
            echo "mutant $name: does not build (see $work/$name.log)"; failed=1
        elif (cd "$work/tree" && cargo test -q "${kill[@]}") >> "$work/$name.log" 2>&1; then
            echo "mutant $name: SURVIVED cargo test ${kill[*]}"; failed=1
        else
            echo "mutant $name: killed by cargo test ${kill[*]}"
        fi
        git -C "$work/tree" apply -R "$patch"
    done
    exit "$failed"

# The size yardstick of deletion PRs (ROADMAP aim 2): per first-party crate,
# non-blank non-comment lines before each file's `#[cfg(test)]` module
# ("code") and, separately, the unit-test lines from it on; then the
# integration tests (`tests/` + `crates/*/tests`) and the vendored stubs
# (`vendor/*/src`). Compare two trees by running it in each.
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    count='FNR == 1 { t = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
        /^[[:space:]]*($|\/\/)/ { next }
        { if (t) tests++; else code++ }
        END { printf "%-12s code %6d   tests %6d\n", name, code, tests }'
    for c in core clampi rma graph tric bench; do
        find "crates/$c" -name '*.rs' -not -path "crates/$c/tests/*" -print0 |
            xargs -0 awk -v name="$c" "$count"
    done
    find tests crates/*/tests -name '*.rs' -print0 | xargs -0 awk -v name="integration" "$count"
    find vendor/*/src -name '*.rs' -print0 | xargs -0 awk -v name="vendor" "$count"

# The repo benchmark (BENCHMARK.json's command, suite mode): every workload,
# untraced then traced, one fresh process per pass; prints every metric by
# name and writes benchmark/out/results.json. See benchmark/README.md.
bench-e2e:
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --

# Both sides of an A/B, built once each into their own target directory
# under target/bench-ab/: the benchmark of `parent` (its tree exported with
# `git archive`, so it builds from committed files only) and of this tree.
_ab-build parent:
    #!/usr/bin/env bash
    set -euo pipefail
    ab="$(pwd)/target/bench-ab"
    rm -rf "$ab/parent"
    mkdir -p "$ab/parent"
    git archive "{{parent}}" | tar -x -C "$ab/parent"
    for side in parent change; do
        src="$(pwd)"; [ "$side" = parent ] && src="$ab/parent"
        CARGO_TARGET_DIR="$ab/$side-target" cargo build --release --offline --quiet \
            --manifest-path "$src/benchmark/Cargo.toml"
    done

# A speed claim's protocol in one command: builds the benchmark of `parent`
# and of this tree, runs `pairs` alternating parent/change processes of one
# workload at BENCHMARK.json's run length on `seed` and on one other seed,
# and prints each end-to-end metric's per-side median and quartiles and how
# many pairs the change won.
# A claim needs >= 9 of 10 pairs and medians apart by more than the parent's
# own interquartile spread, on both seeds. Don't compile while it measures.
bench-ab parent pairs="10" workload="rmat14_lcc_cached" seed="7": (_ab-build parent)
    #!/usr/bin/env bash
    set -euo pipefail
    root=$(pwd)
    ab="$root/target/bench-ab"
    seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
    run() { # side seed -> one line of "metric=value" fields
        local src="$root"; [ "$1" = parent ] && src="$ab/parent"
        (cd "$src" && "$ab/$1-target/release/rmatc-benchmark" --workload "{{workload}}" \
            --seed "$2" --seconds "$seconds" --trace 0) |
            awk -F'\t' '$1 == "metric" { printf "%s=%s ", $2, $3 } END { print "" }'
    }
    for seed in "{{seed}}" "$(({{seed}} + 4))"; do
        log="$ab/{{workload}}-seed$seed.log"
        : > "$log"
        for i in $(seq 1 "{{pairs}}"); do
            order="parent change"; [ $((i % 2)) -eq 0 ] && order="change parent"
            for side in $order; do
                echo "$i $side $(run "$side" "$seed")" | tee -a "$log"
            done
        done
        echo "== {{workload}}, seed $seed, {{pairs}} pairs of ${seconds} s runs: median [q1, q3]"
        awk '
            { for (f = 3; f <= NF; f++) { split($f, kv, "="); v[kv[1], $2, $1] = kv[2]; names[kv[1]] } n = $1 }
            function quartiles(name, side,    i, j, t, x) {
                for (i = 1; i <= n; i++) x[i] = v[name, side, i]
                for (i = 2; i <= n; i++) for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
                return sprintf("%.4g [%.4g, %.4g]", x[int((n + 1) / 2)], x[int((n + 3) / 4)], x[int((3 * n + 1) / 4)])
            }
            END {
                for (name in names) {
                    won = 0
                    for (i = 1; i <= n; i++) {
                        p = v[name, "parent", i]; c = v[name, "change", i]
                        won += (name == "items_per_s") ? (c > p) : (c < p)
                    }
                    printf "%-12s parent %s  change %s  change better in %d/%d\n", name, quartiles(name, "parent"), quartiles(name, "change"), won, n
                }
            }' "$log" | sort
    done

# "Same decisions" as one command: the traced pass of all four workloads on
# seeds 7 and 11, parent and this tree, and a diff of every metric that is an
# exact count of the run (gets, bytes, hits, evictions, kernel shares, service
# batches — not a timing). Exits non-zero on any difference. A change that
# claims it moved only host time passes this; one that moves a count on
# purpose lists what moved and why.
counts-ab parent: (_ab-build parent)
    #!/usr/bin/env bash
    set -euo pipefail
    root=$(pwd)
    ab="$root/target/bench-ab"
    counts() { # side workload seed -> file of "name value" lines, one per exact count
        local src="$root"; [ "$1" = parent ] && src="$ab/parent"
        local out="$ab/counts-$1-$2-seed$3.txt"
        (cd "$src" && "$ab/$1-target/release/rmatc-benchmark" --workload "$2" \
            --seed "$3" --seconds 2 --trace 1) | awk -F'\t' '
            $1 != "metric" { next }
            $2 ~ /^rma\.(gets|bytes|bytes_per_get|local_reads|retries)$/ ||
            ($2 ~ /^clampi\./ && $2 !~ /(_s|_ns)$/) ||
            $2 ~ /^intersect\.(pairs|elems|share_)/ ||
            $2 ~ /^distributed\.(edges|remote_edges)$/ || $2 == "jaccard.edges" ||
            $2 ~ /^service\.(dedup_ratio|rows_per_query|batches|shed|failed)$/ { print $2, $3 }' > "$out"
        [ "$(wc -l < "$out")" -eq 26 ] || { echo "expected 26 exact counts in $out" >&2; exit 2; }
        echo "$out"
    }
    status=0
    for workload in $(grep -o '"name": *"[a-z0-9_]*", *"why"' BENCHMARK.json | cut -d'"' -f4); do
        for seed in 7 11; do
            parent=$(counts parent "$workload" "$seed")
            change=$(counts change "$workload" "$seed")
            if diff "$parent" "$change"; then
                echo "same       $workload seed $seed"
            else
                echo "DIFFERENT  $workload seed $seed (< parent, > change)"
                status=1
            fi
        done
    done
    exit $status

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
