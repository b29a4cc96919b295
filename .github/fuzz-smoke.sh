#!/usr/bin/env bash
# fuzz-smoke.sh TARGET PACKAGE runs one fuzz target for 10 s, prints its
# final exec count, and fails when the target fails or made fewer than
# 1,000 execs: a smoke that spends its time minimizing inputs does not
# fuzz.
set -euo pipefail
target=$1 pkg=$2
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -run '^$' -fuzz="$target" -fuzztime=10s -fuzzminimizetime=50x "$pkg" 2>&1 | tee "$log"
execs=$(sed -n 's/^fuzz: elapsed: .*, execs: \([0-9]*\) .*/\1/p' "$log" | tail -n 1)
echo "$target: ${execs:-no} execs"
if [ -z "$execs" ] || [ "$execs" -lt 1000 ]; then
	echo "$target made fewer than 1000 execs in its 10 s smoke" >&2
	exit 1
fi
