#!/bin/sh
# Stress smokes: perfbench/stress.mc under six configurations and the
# wide streaming fixture, each with its verdict digest
# (`specai-cli --digest`) pinned exactly. The digest
# covers the verdict (classification counters and leak sites), not the
# worklist pop count, so a change that only moves the work re-pins
# nothing. Optimized builds only: the 8-way run takes a few seconds in
# RelWithDebInfo. Run by tools/ci.sh and .github/workflows/ci.yml.
#
# Usage: tools/stress_smoke.sh BUILD_DIR REPO_DIR
set -eu

CLI=$1/tools/specai-cli
STRESS=$2/perfbench/stress.mc
WIDE=$2/tests/fixtures/wide_stream.mc

# check NAME WANT PROGRAM [specai-cli flags...]
check() {
  name=$1
  want=$2
  program=$3
  shift 3
  got=$("$CLI" "$program" "$@" --digest | grep '^verdict-digest:' || true)
  if [ "$got" != "verdict-digest: $want" ]; then
    echo "stress smoke: FAIL - $name verdict digest moved: $got" \
      "(pinned $want)" >&2
    exit 1
  fi
  echo "$name stress smoke: $got"
}

# 512 lines, 8-way (64 cache sets): the one fixed workload whose states
# hold many partitions, so it pins the per-set copy-on-write joins and
# hashes of docs/PERFORMANCE.md end to end.
check 8-way 0xe45308196d1bf461 "$STRESS" --lines 512 --assoc 8

# --lowering summarize keeps the rolled loops, so the speculative engine
# widens at loop headers: this pins the widening path through the lazy
# post-rollback fold and the cached window bounds.
check summarize 0x1c61a968e1363990 "$STRESS" --lines 512 --assoc 8 \
  --lowering summarize

# The non-speculative baseline: the engine over an empty speculation plan
# in reverse post-order, so this pins Algorithm 1 as the empty-plan case
# of the one fixpoint loop.
check baseline 0xc43480f2f3e31dc3 "$STRESS" --no-spec --lines 512 --assoc 8

# No-merge keeps one post-rollback slot per rollback point, so it sends
# the most post-rollback flows through site branches, where the engine's
# clean-flow skip compares window depths; it is also the strategy the
# repair configuration runs. 64 lines, 4-way keeps it to a few seconds.
check no-merge 0x4775884268f1fa69 "$STRESS" --lines 64 --assoc 4 \
  --strategy no-merge

# Fully associative at 64 lines: one partition holding every tracked line
# in byte lanes over a universe of hundreds of blocks, so joins and the
# shadow aging run over windows dozens of words wide.
check fully-assoc 0x4775884268f1fa69 "$STRESS" --lines 64

# Fully associative at 512 lines under a 256 MiB address-space ceiling:
# the analysis needs a few tens of MiB, so a pool that retains every
# seeded or rolled-back state until the run ends (it took 1.2 GiB here)
# fails this with std::bad_alloc.
(ulimit -v 262144; check memory-ceiling 0xe45308196d1bf461 "$STRESS" \
  --lines 512)

# 16,384 lines streamed through the default 512-line fully associative
# cache: pins the wide-universe case, whose lane windows must stay
# bounded by the tracked blocks' span.
check wide-stream 0x073d0b459fc5b3de "$WIDE"
