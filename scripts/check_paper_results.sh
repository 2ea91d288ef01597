#!/usr/bin/env bash
# Regenerates the committed paper-scale results from the release binaries
# and diffs each one's stdout against the file in results/. Not run in CI:
# the whole set takes minutes (fig4 alone about 11 min on one core).
#
#   cargo build --release --bins
#   bash scripts/check_paper_results.sh                  # every file
#   bash scripts/check_paper_results.sh fig5_paper.txt   # only those named
#
# Exits 1 if any checked file differs. Each manifest line is: result
# file, seed, pin, command (relative to target/release; every harness
# gets `--scale paper --seed <seed>`). A `-` command marks a file that no
# command regenerates: it is reported and skipped. `taskset` marks the one
# file whose content depends on worker interleaving (design_search's
# `source` column, recorded with one worker). stderr (progress and
# wall-clock lines) is not part of a result.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=target/release

manifest() {
    cat <<'MANIFEST'
design_search_paper.txt           42  taskset  design_search
fig4_paper.txt                    42  -        fig4
fig5_paper.txt                    42  -        fig5
fig6_paper.txt                    42  -        fig6
seed_variance_paper.txt           42  -        seed_variance
seed_variance_paper_sigma16.txt   42  -        -
MANIFEST
}

# Every paper result must be listed, so a new one cannot go unchecked.
listed=$(manifest | awk '{print $1}' | sort)
present=$(cd results && ls -- *_paper*.txt | sort)
if [ "$listed" != "$present" ]; then
    echo "paper results manifest out of date:" >&2
    diff <(echo "$listed") <(echo "$present") >&2 || true
    exit 1
fi
for want in "$@"; do
    grep -qx -- "$want" <<< "$listed" || { echo "not a paper result: $want" >&2; exit 2; }
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0
while read -r file seed pin cmd; do
    if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qx -- "$file"; then
        continue
    fi
    if [ "$cmd" = - ]; then
        echo "skip $file: no command regenerates it"
        continue
    fi
    run=("$bin/$cmd" --scale paper --seed "$seed")
    [ "$pin" = taskset ] && run=(taskset -c 0 "${run[@]}")
    start=$SECONDS
    if ! "${run[@]}" > "$tmp/$file" 2> "$tmp/stderr"; then
        echo "FAIL $file: $cmd exited nonzero" >&2
        tail -5 "$tmp/stderr" >&2
        failed=1
    elif diff -u "results/$file" "$tmp/$file" > "$tmp/diff"; then
        echo "ok   $file ($((SECONDS - start)) s)"
    else
        echo "FAIL $file: stdout of $cmd differs from results/$file" >&2
        head -20 "$tmp/diff" >&2
        failed=1
    fi
done < <(manifest)
exit "$failed"
