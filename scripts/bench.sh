#!/bin/sh
# Record the PR's headline benchmarks — firmware latency/bandwidth,
# verifier throughput across the two-tier engine matrix (baseline and
# fused), and the verification workloads under ample-set
# partial-order reduction — into BENCH_PR10.json at the repository
# root. Commit the file so performance claims travel with the code.
#
# Usage:
#   scripts/bench.sh                 # full two-tier engine matrix
#   scripts/bench.sh -seed <gitref>  # also benchmark the pre-PR commit
#                                    # in a worktree and record the
#                                    # fused-over-seed speedups
# Extra arguments are passed through to cmd/benchrec (e.g.
# -engines fused to record one tier only).
set -eu
cd "$(dirname "$0")/.."

seed_file=""
wt=""
while [ $# -gt 0 ]; do
    case "$1" in
    -seed)
        ref="$2"
        shift 2
        wt=$(mktemp -d /tmp/espseed.XXXXXX)
        git worktree add --detach --force "$wt" "$ref" >/dev/null
        echo "benchmarking seed $ref ..." >&2
        (cd "$wt" && go test -run xxx \
            -bench 'Fig5bBandwidth/vmmcESP/1024B|VerifyMemSafety|VerifyFirmwareModel' \
            -benchtime 2s .) | tee "$wt/seed_bench.txt" >&2
        seed_file="$wt/seed_bench.txt"
        ;;
    *)
        break
        ;;
    esac
done

if [ -n "$seed_file" ]; then
    set -- -seed-bench "$seed_file" "$@"
fi
go run ./cmd/benchrec -out BENCH_PR10.json "$@"

if [ -n "$wt" ]; then
    git worktree remove --force "$wt"
fi
