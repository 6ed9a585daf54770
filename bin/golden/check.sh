#!/bin/sh
# The xc goldens: stdout and artifacts of ten deterministic xc
# commands, pinned byte for byte at --jobs 1 and at --jobs 2.  Files of
# 100 KB or less sit verbatim next to this script; larger ones (Chrome
# JSON and time-series CSVs) are pinned by their digests in MD5SUMS.
#
#   sh bin/golden/check.sh XC            compare XC's output (tier-1)
#   sh bin/golden/check.sh XC --refresh  rewrite the goldens from XC
#
# Refresh only in a change that means to move xc output, and say so in
# its description.
set -eu
xc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$(cd "$(dirname "$0")" && pwd)

# Every pinned command at --jobs $1, outputs in the current directory.
run () {
  j=$1
  "$xc" cluster --fidelity mixed --sample-rate 4 --nodes 4 --containers 8 \
    --tail p99 --tails cluster.tails --timeseries cluster.csv --jobs "$j" \
    > cluster.out
  "$xc" trace run cluster --tail p99 --tails trace-cluster.tails --jobs "$j" \
    > trace-cluster.out
  "$xc" trace run closed-loop --tail p99 --slowest 2 --out trace-cl.json \
    --folded trace-cl.folded --timeseries trace-cl.csv --jobs "$j" \
    > trace-cl.out
  "$xc" trace run httpd --slowest 3 --jobs "$j" > trace-httpd.out
  "$xc" trace tails docker x-container --connections 1 --csv tails.csv \
    --folded tails.folded --jobs "$j" > tails.out
  "$xc" lb tail --jobs "$j" > lb-tail.out
  "$xc" top closed-loop --interval 50 --alert 'net/messages>1' \
    --timeseries top.csv --jobs "$j" > top.out
  "$xc" suite run smoke --csv suite.csv --tails suite.tails \
    --timeseries suite-ts.csv --jobs "$j" > suite.out 2> /dev/null
  "$xc" causal sweep --csv causal.csv --jobs "$j" > causal.out 2> /dev/null
  # sweep's stdout reports wall time, so only its trace is pinned.
  "$xc" sweep --duration 20 --containers 4 --trace sweep.json --jobs "$j" \
    > /dev/null
}

big () { [ "$(wc -c < "$1")" -gt 102400 ]; }

if [ "${2:-}" = --refresh ]; then
  tmp=$(mktemp -d)
  (cd "$tmp" && run 1)
  find "$golden" -type f ! -name check.sh -delete
  : > "$golden/MD5SUMS"
  for f in $(cd "$tmp" && ls); do
    if big "$tmp/$f"; then (cd "$tmp" && md5sum "$f") >> "$golden/MD5SUMS"
    else cp "$tmp/$f" "$golden/$f"; fi
  done
  rm -rf "$tmp"
  exit 0
fi

for j in 1 2; do
  out=golden.jobs$j
  rm -rf "$out"
  mkdir "$out"
  (cd "$out" && run "$j")
  pinned=0
  for g in "$golden"/*; do
    f=$(basename "$g")
    case $f in check.sh | MD5SUMS) continue ;; esac
    cmp "$g" "$out/$f"
    pinned=$((pinned + 1))
  done
  (cd "$out" && md5sum -c --quiet "$golden/MD5SUMS")
  pinned=$((pinned + $(wc -l < "$golden/MD5SUMS")))
  # A new artifact must be pinned too, not silently ignored.
  [ "$(ls "$out" | wc -l)" -eq "$pinned" ] || {
    echo "check.sh: $out holds unpinned files" >&2
    exit 1
  }
done
