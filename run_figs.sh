#!/bin/bash
# Runs the full figure suite through the run_all_figs driver, which runs
# every figure's worlds on one set of worker threads (HC_JOBS, default all
# cores; HC_JOBS=1 forces exact serial execution) and writes
# results/<figure>.txt. Extra arguments are forwarded, e.g.:
#
#   ./run_figs.sh --compare-serial --bench-out BENCH_sim.json
#
# A failing figure fails the whole run: the driver prints
# ALL-FIGURES-DONE only when every figure succeeded and exits non-zero
# otherwise — and so does this wrapper.
cd "$(dirname "$0")" || exit 1
./target/release/run_all_figs --results results "$@"
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FIGURES-FAILED rc=$rc" >&2
fi
exit "$rc"
