#!/bin/bash
# Regenerate every table and figure of the paper at full evaluation scale.
cd "$(dirname "$0")/.."
BIN=./target/release
for f in fig02 fig07 fig08 fig09 fig10 table1 fig11 fig12 fig13 fig14 ablation_pipeline ablation_placement ablation_aggregators ablation_burst_buffer ablation_imbalance ablation_subfiling portability interference; do
  echo "== $f =="
  $BIN/$f > results/$f.csv 2> results/$f.log
  grep SHAPE results/$f.csv
done
# The example programs verify themselves and print a verdict line; a
# failure is a broken pipeline, not a shape, and fails this script.
fail=0
for f in examples/*.rs; do
  e=$(basename "$f" .rs)
  echo "== example $e =="
  cargo run --release --quiet -p tapioca --example "$e" || { echo "EXAMPLE FAILED: $e"; fail=1; }
done
exit $fail
