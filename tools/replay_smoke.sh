#!/bin/sh
# Replay round-trip smoke (docs/FUZZING.md, "Campaigns, minimization,
# replay"). For one engine fault and one verdict fault:
#   1. inject the fault and write the minimized counterexamples;
#   2. replay one file through `specai-fuzz --replay`: it must print
#      `reproduced` and exit 2;
#   3. corrupt its `// replay-fault:` line: the replay must exit 1.
# The in-process selftest never goes through the replay-file parser, so
# this is the check on it. Run by tools/ci.sh and .github/workflows/ci.yml.
#
# Usage: tools/replay_smoke.sh PATH/TO/specai-fuzz WORKDIR
set -eu

FUZZ=$1
WORK=$2

fail() {
  echo "replay smoke: FAIL - $*" >&2
  exit 1
}

for fault in skip-spec-seed wcet-hit-for-miss; do
  DIR="$WORK/replay-smoke-$fault"
  rm -rf "$DIR"
  mkdir -p "$DIR"

  status=0
  "$FUZZ" --seed 1 --programs 8 --inject-fault "$fault" --ce-dir "$DIR" \
    > "$DIR/campaign.log" || status=$?
  [ "$status" -eq 2 ] ||
    fail "--inject-fault $fault exited $status, expected 2 (caught)"
  CE=$(ls "$DIR"/fuzz-ce-seed*.mc | head -n 1)

  status=0
  "$FUZZ" --replay "$CE" > "$DIR/replay.log" || status=$?
  [ "$status" -eq 2 ] && grep -q '^reproduced: ' "$DIR/replay.log" ||
    fail "$CE did not reproduce (exit $status)"

  sed "s|^// replay-fault: $fault\$|// replay-fault: ${fault}x|" "$CE" \
    > "$DIR/corrupt.mc"
  grep -q "^// replay-fault: ${fault}x\$" "$DIR/corrupt.mc" ||
    fail "$CE has no '// replay-fault: $fault' line"
  status=0
  "$FUZZ" --replay "$DIR/corrupt.mc" > /dev/null 2> "$DIR/corrupt.err" ||
    status=$?
  [ "$status" -eq 1 ] && grep -q "bad replay-fault value" "$DIR/corrupt.err" ||
    fail "a corrupted replay-fault line exited $status, expected 1"

  echo "replay smoke: $fault reproduced from $(basename "$CE"); a" \
    "corrupted replay-fault is rejected"
done
