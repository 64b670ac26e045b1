#!/usr/bin/env bash
# Regenerates every table and figure of the paper into results/ — the
# equivalent of the original artifact's run_artifact.sh.
#
# `rrs figure all` renders the whole figure registry. Every simulation
# runs through the campaign engine (rrs::campaign): cells execute in
# parallel across the machine's cores and each finished cell is cached
# under results/ as <cell-id>.json, so an interrupted regeneration resumes
# where it stopped and figures sharing cells (e.g. the no-defense
# baselines behind table3/fig6/fig11) run them once. Each figure's text
# lands in results/<name>.txt, and per-workload series in
# results/<name>.csv. Delete results/*.json (or pass --force) to
# re-simulate.
#
# Usage: ./regenerate.sh [SCALE] [INSTR]
#   SCALE  time-scale factor (default 100; must divide 800; 1 = the paper's
#          full-scale parameters — slower but exact)
#   INSTR  instructions per core for benign runs (default 6000000)
set -euo pipefail

SCALE="${1:-100}"
INSTR="${2:-6000000}"
OUT=results

echo "building (release)..."
cargo build --release -p rrs-cli

./target/release/rrs-cli figure all --scale "$SCALE" --instr "$INSTR" --out "$OUT"

echo
echo "all outputs in $OUT/ — compare against EXPERIMENTS.md"
