#!/bin/sh
# Run every workload, end-to-end then traced, one process each, one after
# another.  Usage (from the repository root):
#     sh perfbench/run_all.sh [seed] [seconds]
# Exits non-zero if any invocation fails or reports an incorrect output.
seed=${1:-0}
seconds=${2:-12}
status=0
mkdir -p perfbench/out
for workload in paper6 scale512_pred scale512_nonpred ops6; do
    for trace in 0 1; do
        echo "== $workload trace=$trace"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" > perfbench/out/last.txt || status=1
        grep -v '^{' perfbench/out/last.txt
        tail -n 1 perfbench/out/last.txt | grep -q '"correct": true' || status=1
    done
done
exit $status
