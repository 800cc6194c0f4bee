#!/bin/sh
# Write every CLI artifact of the bundled cases into the directory $2, with
# whatever mplf `python` imports and at the BLAS thread count of the
# environment; $1 is the directory of the bundled feeder data.
#
# The cases are ieee37 and ieee123, original and mixed injections, the
# pair-free single_phase feeder and three_bus: 11 artifacts each, 66 in all.
# Theorem 2 is also certified from each case's own injections as the base, a
# solved base rather than (w, 0), and each case is also swept at
# --tol-step 1e-7, where Newton finishes rows.  certify exits 2 when the
# certificate does not pass.
#
#     sh .github/write-artifacts.sh "$data" threads1
set -e
data=$1 dest=$2
mkdir -p "$dest"
for case in ieee37:injections ieee37:injections_mixed ieee123:injections \
    ieee123:injections_mixed single_phase:injections three_bus:injections; do
  feeder=${case%%:*}; out=$dest/${feeder}_${case#*:}
  set -- "$data/${feeder}_network.json" "$data/${feeder}_${case#*:}.json"
  python -m mplf.cli solve "$@" --output "$out.solve.json"
  for theorem in 1 2; do
    python -m mplf.cli certify "$@" --theorem $theorem --output "$out.certify$theorem.json" || [ $? -eq 2 ]
  done
  python -m mplf.cli certify "$@" --theorem 2 --base-injections "$2" \
    --output "$out.certify2base.json" || [ $? -eq 2 ]
  for kind in fot fpl; do
    python -m mplf.cli linearize "$@" --kind $kind --output "$out.$kind.json"
  done
  for base in 0 1; do
    python -m mplf.cli sweep "$@" --base-kappa $base \
      --output "$out.sweep$base.csv" --interval-output "$out.intervals$base.json"
  done
  # A loose step tolerance hands rows to the Newton fallback.
  python -m mplf.cli sweep "$@" --tol-step 1e-7 --output "$out.sweeptol.csv"
done
