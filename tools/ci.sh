#!/bin/sh
# Local CI: the same configure + build + test sequence as
# .github/workflows/ci.yml. Run from anywhere; builds into <repo>/build-ci.
set -eu

REPO=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD="$REPO/build-ci"
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

# Docs hygiene first (cheapest check): every markdown link and every
# document citation in source comments must resolve (tools/check_docs.sh).
"$REPO/tools/check_docs.sh"

# Daemon-safety greps (docs/SERVICE.md, "Daemon-safety ground rules").
# Library code must never kill the process: a std::exit in src/ would be
# fatal inside the long-lived specaid daemon. And error/warning
# diagnostics must go to stderr everywhere — stdout is the protocol,
# report, and JSON channel, so a stray error line corrupts whatever a
# script is parsing. These regressed silently before (requireRow and
# parseJobsFlag both exited; four benches printed errors to stdout).
if grep -rn 'std::exit\|[^_[:alnum:]]exit *(' \
    "$REPO/src" --include='*.cpp' --include='*.h' |
    grep -v '^\([^:]*\):[0-9]*: *\(//\|\*\)'; then
  echo "ci: FAIL - library code under src/ must not call exit()" >&2
  exit 1
fi
if grep -rn 'printf("error\|printf("warning' \
    "$REPO/src" "$REPO/tools" "$REPO/bench" \
    --include='*.cpp' --include='*.h' | grep -v 'fprintf'; then
  echo "ci: FAIL - diagnostics must go to stderr, not stdout" >&2
  exit 1
fi

# Build-tree hygiene: build directories are disposable (.gitignore covers
# build*/) and must never be committed — a tracked CMakeCache.txt once
# pinned another machine's absolute paths for several PRs. Fails if any
# tracked path lives under a build*/ directory.
if git -C "$REPO" ls-files -- 'build*' | grep -q .; then
  git -C "$REPO" ls-files -- 'build*' | head >&2
  echo "ci: FAIL - tracked files under build*/ (git rm -r --cached them)" >&2
  exit 1
fi

cmake -B "$BUILD" -S "$REPO" -DSPECAI_WERROR=ON
cmake --build "$BUILD" -j "$JOBS"
# The `stress` label runs next to the stress smokes below.
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS" -LE stress

# Bounded differential-fuzzing smoke: a fixed-seed campaign (~30 s) that
# fails on any containment violation of the speculative analysis. The
# deeper proof that the oracle can catch a broken engine runs as the
# specai_fuzz_selftest CTest case above. The FIFO/PLRU legs cover the
# non-LRU lattices of docs/DOMAINS.md with a smaller program budget (the
# 20-seed golden corpora in fuzz_regression_test pin their exact states).
"$BUILD/tools/specai-fuzz" --seed 1 --programs 25 --jobs "$JOBS" \
  --ce-dir "$BUILD"
for policy in fifo plru; do
  "$BUILD/tools/specai-fuzz" --seed 1 --programs 10 --jobs "$JOBS" \
    --policy "$policy" --ce-dir "$BUILD"
done

# Verdict-oracle smokes (docs/FUZZING.md, "Verdict oracles"): the WCET
# bound vs the cycle-charging concrete executor, and the leak-freedom
# proofs vs the concrete cache-timing attacker. Campaign JSON lands next
# to the build like the perf smoke's (CI uploads them as artifacts).
# (No pipeline here: POSIX sh has no pipefail, and a pipe into tee would
# mask a violation's exit code from set -e.)
for oracle in wcet leak; do
  "$BUILD/tools/specai-fuzz" --seed 1 --programs 10 --jobs "$JOBS" \
    --oracle "$oracle" --ce-dir "$BUILD" --json \
    > "$BUILD/fuzz_${oracle}_smoke.json"
  cat "$BUILD/fuzz_${oracle}_smoke.json"
done

# Repair smoke (docs/MITIGATION.md): a 10-program synthesize-and-
# revalidate campaign — every leaky program gets a mitigation set whose
# re-analysis proves it leak-free, the patched program replays
# architecturally unchanged under secret-variant attacker families, and
# committed cycles never exceed the claimed WCET bound. The JSON carries
# the repair_* counters (leaky/repaired split, re-analyses, replay runs).
"$BUILD/tools/specai-fuzz" --seed 1 --programs 10 --jobs "$JOBS" \
  --oracle repair --ce-dir "$BUILD" --json \
  > "$BUILD/fuzz_repair_smoke.json"
cat "$BUILD/fuzz_repair_smoke.json"

# Differential-lowering smoke (DESIGN.md §4): deep-call/uncounted-loop
# programs compiled under both InlineUnroll and Summarize, cross-checked
# by the lowering oracle (classification conflicts, concrete must-hit
# refutation, concrete WCET undercut). The JSON carries the lowering_*
# precision-delta counters next to the soundness counters.
"$BUILD/tools/specai-fuzz" --seed 1 --programs 10 --jobs "$JOBS" \
  --oracle lowering --gen-deep --ce-dir "$BUILD" --json \
  > "$BUILD/fuzz_lowering_smoke.json"
cat "$BUILD/fuzz_lowering_smoke.json"

# Replay round trip (tools/replay_smoke.sh): an injected engine fault and
# an injected verdict fault each leave a counterexample that --replay
# reproduces (exit 2), and a corrupted `// replay-fault:` line in it is
# rejected (exit 1). Next to the specai_fuzz_rejects_replay_* CTest
# cases, this is the check on the replay-file parser: they feed it bad
# values, this feeds it real counterexamples.
"$REPO/tools/replay_smoke.sh" "$BUILD/tools/specai-fuzz" "$BUILD"

# Stress smokes (tools/stress_smoke.sh): perfbench/stress.mc at 8-way,
# under --lowering summarize, as the --no-spec baseline, under no-merge
# and fully associative at 64 lines, plus the wide streaming fixture, each
# with its verdict digest pinned. Then the stress pins
# (tests/stress_pin_test.cpp): the full state digest and every engine
# counter of stress.mc at 8-way, no-merge and fully associative, which the
# count-only verdict digests cannot see.
"$REPO/tools/stress_smoke.sh" "$BUILD" "$REPO"
ctest --test-dir "$BUILD" -L stress --output-on-failure

# Fixed-coverage perf smoke: the 50-program campaign behind
# BENCH_fuzz.json, with timing JSON written next to the build
# (informational — timings are machine-dependent and never gate; the
# coverage counters inside are deterministic and the run still fails on
# any soundness violation). docs/PERFORMANCE.md explains the trajectory.
"$BUILD/tools/specai-fuzz" --seed 1 --programs 50 --jobs "$JOBS" --json \
  > "$BUILD/fuzz_perf_smoke.json"
echo "perf smoke timing JSON: $BUILD/fuzz_perf_smoke.json"

# Every JSON file the smokes above and the bench-smoke CTest cases wrote
# must parse with a strict reader.
for json in "$BUILD"/fuzz_*_smoke.json "$BUILD"/bench/*.json; do
  python3 -m json.tool "$json" > /dev/null
done

# Service smoke (docs/SERVICE.md): boot a real specaid daemon on a
# private socket, drive a 100-request/10-unique trace through it, and
# demand (a) cache hits actually happened and (b) every daemon verdict
# is bit-identical to a fresh in-process run (--check recomputes all
# digests locally). Then the single-file path: the daemon's
# verdict-digest line must match specai-cli --digest on the same input.
SOCK="$BUILD/specaid-ci.sock"
rm -f "$SOCK"
"$BUILD/tools/specaid" --socket "$SOCK" --jobs "$JOBS" --cache 256 \
  > "$BUILD/specaid-ci.log" 2>&1 &
SPECAID_PID=$!
trap 'kill "$SPECAID_PID" 2>/dev/null || true' EXIT
for _ in 1 2 3 4 5 6 7 8 9 10; do
  [ -S "$SOCK" ] && break
  sleep 1
done
"$BUILD/tools/specaid-cli" --socket "$SOCK" \
  --trace 100 --unique 10 --seed 1 --check
DAEMON_DIGEST=$("$BUILD/tools/specaid-cli" --socket "$SOCK" \
  "$REPO/examples/quickstart.mc" --lines 6 || [ $? -eq 2 ])
DAEMON_DIGEST=$(printf '%s\n' "$DAEMON_DIGEST" | grep '^verdict-digest:')
LOCAL_DIGEST=$("$BUILD/tools/specai-cli" "$REPO/examples/quickstart.mc" \
  --lines 6 --digest --leaks || [ $? -eq 2 ])
LOCAL_DIGEST=$(printf '%s\n' "$LOCAL_DIGEST" | grep '^verdict-digest:')
if [ -z "$DAEMON_DIGEST" ] || [ "$DAEMON_DIGEST" != "$LOCAL_DIGEST" ]; then
  echo "ci: FAIL - daemon verdict digest ($DAEMON_DIGEST) !=" \
    "single-shot digest ($LOCAL_DIGEST)" >&2
  exit 1
fi
"$BUILD/tools/specaid-cli" --socket "$SOCK" --shutdown
wait "$SPECAID_PID"
trap - EXIT
echo "service smoke: trace checked, daemon digest matches $LOCAL_DIGEST"

# Chaos smoke (docs/SERVICE.md, "Crash tolerance"): boot a spill-backed
# daemon with a cache small enough that the trace evicts onto disk, load
# it, then kill -9 mid-flight — the worst crash the spill tier must
# survive (torn .tmp files, in-flight analyses, connected clients). A
# fresh daemon restarted over the same spill directory must answer a
# --check replay with zero digest mismatches: every verdict either
# survives the crash intact (checksummed spill file) or is quarantined
# and transparently re-analyzed. The client driving the doomed daemon is
# expected to fail; only the post-restart check gates.
SPILL="$BUILD/specaid-chaos-spill"
rm -rf "$SPILL"
mkdir -p "$SPILL"
rm -f "$SOCK"
"$BUILD/tools/specaid" --socket "$SOCK" --jobs 2 --cache 4 \
  --spill "$SPILL" > "$BUILD/specaid-chaos.log" 2>&1 &
SPECAID_PID=$!
trap 'kill -9 "$SPECAID_PID" 2>/dev/null || true' EXIT
for _ in 1 2 3 4 5 6 7 8 9 10; do
  [ -S "$SOCK" ] && break
  sleep 1
done
# Warm load: 12 uniques through a 4-entry cache forces spill writes.
"$BUILD/tools/specaid-cli" --socket "$SOCK" \
  --trace 24 --unique 12 --seed 3
# Crash mid-flight: a second trace runs while the daemon is killed -9.
"$BUILD/tools/specaid-cli" --socket "$SOCK" \
  --trace 50 --unique 25 --seed 4 > /dev/null 2>&1 &
CHAOS_CLIENT=$!
kill -9 "$SPECAID_PID"
wait "$CHAOS_CLIENT" 2>/dev/null || true
wait "$SPECAID_PID" 2>/dev/null || true
trap - EXIT
# Restart over the same spill directory; --check recomputes every
# verdict locally and exits nonzero on any digest mismatch.
rm -f "$SOCK"
"$BUILD/tools/specaid" --socket "$SOCK" --jobs 2 --cache 4 \
  --spill "$SPILL" > "$BUILD/specaid-chaos2.log" 2>&1 &
SPECAID_PID=$!
trap 'kill "$SPECAID_PID" 2>/dev/null || true' EXIT
for _ in 1 2 3 4 5 6 7 8 9 10; do
  [ -S "$SOCK" ] && break
  sleep 1
done
"$BUILD/tools/specaid-cli" --socket "$SOCK" \
  --trace 24 --unique 12 --seed 3 --check
"$BUILD/tools/specaid-cli" --socket "$SOCK" --shutdown
wait "$SPECAID_PID"
trap - EXIT
echo "chaos smoke: kill -9 + restart over $SPILL, replay bit-identical"

# Thread-sanitizer leg (docs/PERFORMANCE.md, "Thread safety"): each
# analysis is serial, but parallelFor runs whole analyses side by side —
# batch sweeps, fuzz campaigns, and the daemon's concurrent requests —
# sharing read-only compiled programs. Cache states never cross threads
# except through a join or a future (their refcounts are plain), so the
# workers hand back verdicts and scalars only. The unit suite (service
# tests and the cache-state hand-off test included) and fuzz and repair
# campaigns at --jobs 4 run once more under TSan. Determinism across --jobs is pinned
# separately by the campaign and batch tests; this leg pins data-race
# freedom.
TSAN_BUILD="$REPO/build-tsan"
cmake -B "$TSAN_BUILD" -S "$REPO" -DSPECAI_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$TSAN_BUILD" -j "$JOBS"
ctest --test-dir "$TSAN_BUILD" -L unit --output-on-failure -j "$JOBS"
"$TSAN_BUILD/tools/specai-fuzz" --seed 1 --programs 10 --jobs 4 \
  --ce-dir "$TSAN_BUILD"
# Four repair syntheses at once, each running dozens of re-analyses: the
# search + revalidation loop gets its own TSan pass (fewer programs).
"$TSAN_BUILD/tools/specai-fuzz" --seed 1 --programs 5 --jobs 4 \
  --oracle repair --ce-dir "$TSAN_BUILD"
echo "tsan leg: unit suite + --jobs 4 fuzz and repair smokes race-free"

# Address/undefined-behaviour sanitizer leg (the sanitize-service CI job):
# the service/support suite, the two state-representation suites (cache
# states are built from two refcounted copy-on-write node types, payloads
# and partitions, so a refcount slip fails here as a leak or a
# use-after-free), the paper-kernel digests (states of hundreds of
# entries in 16-bit lanes, whose windows a lane-index slip would overrun),
# the two domain suites (their lane-width sweeps move windows across the
# two inline words of a lane list and onto the heap), the engine suite
# (the fixpoint's slot-map drains, self-loop node included) and the batch
# suite (analyses on parallelFor workers), and a sanitized daemon serving
# a --check trace.
ASAN_BUILD="$REPO/build-asan"
cmake -B "$ASAN_BUILD" -S "$REPO" -DSPECAI_WERROR=ON \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$ASAN_BUILD" -j "$JOBS" --target service_test \
  packed_state_test paper_kernel_digest_test state_repr_test domain_test \
  policy_domain_test engine_test batch_runner_test specaid specaid-cli
"$ASAN_BUILD/tests/service_test"
"$ASAN_BUILD/tests/packed_state_test"
"$ASAN_BUILD/tests/paper_kernel_digest_test"
"$ASAN_BUILD/tests/state_repr_test"
"$ASAN_BUILD/tests/domain_test"
"$ASAN_BUILD/tests/policy_domain_test"
"$ASAN_BUILD/tests/engine_test"
"$ASAN_BUILD/tests/batch_runner_test"
SOCK="$ASAN_BUILD/specaid-asan.sock"
SPILL="$ASAN_BUILD/asan-spill"
rm -f "$SOCK"
mkdir -p "$SPILL"
"$ASAN_BUILD/tools/specaid" --socket "$SOCK" --jobs 2 --cache 8 \
  --spill "$SPILL" > "$ASAN_BUILD/specaid-asan.log" 2>&1 &
SPECAID_PID=$!
trap 'kill "$SPECAID_PID" 2>/dev/null || true' EXIT
for _ in 1 2 3 4 5 6 7 8 9 10; do
  [ -S "$SOCK" ] && break
  sleep 1
done
"$ASAN_BUILD/tools/specaid-cli" --socket "$SOCK" \
  --trace 60 --unique 12 --seed 1 --check
"$ASAN_BUILD/tools/specaid-cli" --socket "$SOCK" --shutdown
wait "$SPECAID_PID"
trap - EXIT
echo "asan leg: service, state-representation, domain, engine and batch suites and daemon clean"
