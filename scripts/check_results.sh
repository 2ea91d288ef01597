#!/usr/bin/env bash
# Regenerates every committed small-scale result from the release binaries
# and examples and diffs its stdout against the file in results/.
#
#   cargo build --release --bins --examples
#   bash scripts/check_results.sh    # exits 1 if any file differs
#
# Each manifest line is: result file, seed, pin, command (relative to
# target/release, at small scale, the harnesses' default). Harness bins
# get `--seed <seed>`; the two examples fix their seed in source, so the
# column only records it. `taskset` marks the one file whose content
# depends on worker interleaving: design_search's `source` column (cold /
# memo) is recorded with one worker serving the cells in order. stderr
# (progress and wall-clock lines) is not part of a result.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=target/release

manifest() {
    cat <<'MANIFEST'
ablation_k_small.txt         42  -        ablation_k
adaptive_small.txt           42  -        adaptive
bgp_convergence_small.txt    42  -        bgp_convergence
design_search_small.txt      42  taskset  design_search
failure_drill_small.txt      11  -        examples/failure_drill
failures_small.txt           42  -        failures
fig4_small.txt               42  -        fig4
fig5_small.txt               42  -        fig5
fig6_small.txt               42  -        fig6
lb_schemes_small.txt         42  -        lb_schemes
path_diversity_small.txt     42  -        path_diversity
pfc_spreading_small.txt      42  -        examples/pfc_drill
table_udf_small.txt          42  -        table_udf
theorem1_small.txt           42  -        theorem1
transports_small.txt         42  -        transports
MANIFEST
}

# Every small result must be listed, so a new one cannot go unchecked.
listed=$(manifest | awk '{print $1}' | sort)
present=$(cd results && ls -- *_small.txt | sort)
if [ "$listed" != "$present" ]; then
    echo "results manifest out of date:" >&2
    diff <(echo "$listed") <(echo "$present") >&2 || true
    exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0
while read -r file seed pin cmd; do
    run=("$bin/$cmd")
    [[ $cmd == examples/* ]] || run+=(--seed "$seed")
    [ "$pin" = taskset ] && run=(taskset -c 0 "${run[@]}")
    if ! "${run[@]}" > "$tmp/$file" 2> "$tmp/stderr"; then
        echo "FAIL $file: $cmd exited nonzero" >&2
        tail -5 "$tmp/stderr" >&2
        failed=1
    elif diff -u "results/$file" "$tmp/$file" > "$tmp/diff"; then
        echo "ok   $file"
    else
        echo "FAIL $file: stdout of $cmd differs from results/$file" >&2
        head -20 "$tmp/diff" >&2
        failed=1
    fi
done < <(manifest)
exit "$failed"
