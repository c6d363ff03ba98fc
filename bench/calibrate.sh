#!/usr/bin/env bash
# Runs every workload once per seed, each run its own process as the driver
# does it, and appends the end-to-end metrics to a result-set file that
# -compare reads:
#
#	bash bench/calibrate.sh bench/out/run-A.json 1 10
set -euo pipefail
out="$1"; first="${2:-1}"; last="${3:-10}"
cd "$(dirname "$0")/.."
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
for seed in $(seq "$first" "$last"); do
	for w in scan_uniform hot_zipf mixed_realtime fanout_wide; do
		log="bench/out/calibrate-$w-$seed.log"
		if bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --record "$out" >/dev/null 2>"$log"; then
			rm -f "$log"
		else
			echo "run failed, see $log" >&2
		fi
	done
done
