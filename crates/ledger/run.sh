#!/usr/bin/env bash
# pccheck-ledger: build the ledger binary, then measure.
#
#   crates/ledger/run.sh [--seed S] [--seconds T] [--out FILE]
#       every workload untraced (end to end) then traced (per layer);
#       prints every metric, writes one pccheck.ledger.v1 document,
#       exits non-zero on any verification failure.
#   crates/ledger/run.sh --selfcheck [--seed S] [--seconds T]
#       two sets of three untraced runs of the same binary, diffed under
#       the ledger's own bounds.
#   crates/ledger/run.sh --workload W --seed S --seconds T --trace 0|1
#       one run, as BENCHMARK.json's driver calls it: the last line of
#       standard output is the result object.
#   crates/ledger/run.sh diff A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
bin="$target/release/pccheck-ledger"
stamp="$target/pccheck-ledger.build_mode"
log="$target/pccheck-ledger.build.log"

# Leave the work tree as found: a Cargo.lock that was not there before
# the build is removed after it, whichever way the script ends.
had_lock=0
[ -e Cargo.lock ] && had_lock=1
cleanup() { [ "$had_lock" = 1 ] || rm -f Cargo.lock; }
trap cleanup EXIT

build_registry() {
    CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=10 \
        cargo build --release -p pccheck-ledger >"$log" 2>&1
}

# No registry, no vendor directory, no Cargo.lock: resolve the external
# crates against the functional stand-ins checked in beside this script.
build_offline() {
    cargo build --release -p pccheck-ledger --offline \
        --config 'source.crates-io.replace-with="ledger-stubs"' \
        --config 'source.ledger-stubs.directory="crates/ledger/offline/vendor"' \
        >"$log" 2>&1
}

mkdir -p "$target"
# The mode that built this target directory last is tried first, so a
# sandbox without a registry does not wait for it on every run.
mode="$(cat "$stamp" 2>/dev/null || echo registry)"
if [ "$mode" = registry ] && build_registry; then
    mode=registry
else
    cleanup
    if build_offline; then
        mode=offline-stubs
    else
        cat "$log" >&2
        echo "pccheck-ledger: build failed (registry and offline stand-ins)" >&2
        exit 3
    fi
fi
echo "$mode" >"$stamp"
cleanup

# Allocator conditions of every measured process. Left to itself glibc
# serves each recovery's state-sized buffers from fresh mmap regions and
# gives them back afterwards, so a recovery is mostly first-touch page
# faults, whose price on this shared VM moves by tens of percent from one
# process to the next; and it spreads the tenants' buffers over per-thread
# arenas differently on every run, which moves peak_rss_mb by 13%. One
# heap that serves every size and is never trimmed keeps the pages, and
# the measurement is of the checkpoint path again. Both spellings are
# set: the tunables, and the variables older glibc reads.
malloc_tuning="mmap_max=0 trim_threshold=4294967295 arena_max=1"
export MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=4294967295 MALLOC_ARENA_MAX=1
export GLIBC_TUNABLES="${GLIBC_TUNABLES:+$GLIBC_TUNABLES:}glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=4294967295:glibc.malloc.arena_max=1"

has() { local want="$1"; shift; for a in "$@"; do [ "$a" = "$want" ] && return 0; done; return 1; }

if has --workload "$@"; then
    # The driver's view: exactly the metrics BENCHMARK.json declares.
    exec "$bin" run "$@" --declared BENCHMARK.json
fi
if [ "${1:-}" = diff ]; then
    shift
    exec "$bin" diff "$@"
fi

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
env_args=(--env "build_mode=$mode" --env "nproc=$(nproc)"
    --env "rustc=$(rustc --version)" --env "git_commit=$commit"
    --env "malloc=$malloc_tuning")
if [ "${1:-}" = --selfcheck ]; then
    shift
    exec "$bin" selfcheck "${env_args[@]}" "$@"
fi
has --out "$@" || set -- "$@" --out "$target/pccheck-ledger.json"
exec "$bin" ledger "${env_args[@]}" "$@"
