#!/usr/bin/env bash
# Run every CI artifact command and keep one text table per command.
#
# Usage: bench/ci_artifacts.sh BUILD_DIR OUT_DIR
#
# BUILD_DIR holds the built example_* / bench_* drivers; OUT_DIR (made
# if missing) receives NAME.txt for each command below, and each table
# is echoed to stdout as it is written. The script stops at the first
# command that exits nonzero and exits with that command's status.
#
# Every command is deterministic for its arguments, so the OUT_DIRs of
# two builds compare with `diff -r`: the bit-identity check for a
# change that must not move any output.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BUILD_DIR OUT_DIR" >&2
    exit 2
fi
build=$1
out=$2
mkdir -p "$out"

# run NAME DRIVER [ARGS...]: BUILD_DIR/DRIVER ARGS > OUT_DIR/NAME.txt
run()
{
    local name=$1 driver=$2
    shift 2
    echo "== $name: $driver $*" >&2
    set +e
    "$build/$driver" "$@" | tee "$out/$name.txt"
    local status=${PIPESTATUS[0]}
    set -e
    if [ "$status" -ne 0 ]; then
        echo "ci_artifacts: $driver exited $status" >&2
        exit "$status"
    fi
}

# End-to-end smoke drivers: transmitString, the multi-set and L2
# channels, the Sec. IX attacks (AttackConfig) and the Sec. VIII
# defense table (evaluateDefenses).
run quickstart example_quickstart
run extensions bench_extensions
run side_channel_attack example_side_channel_attack
run defense_evaluation example_defense_evaluation

# Paper drivers that put every baseline program under the bit-identity
# diff: Flush+Reload, Hit+Hit and WB (Table I), LRU and Prime+Probe
# with noise processes (Fig. 8), continuous-modulation LRU (Table VI).
run table1_taxonomy bench_table1_taxonomy
run fig8_noise bench_fig8_noise
run table6_loads bench_table6_loads

# The artifact sweeps CI uploads.
run platform_sweep example_platform_sweep 2 -j 4
run noise_sweep example_noise_sweep 3 -j 4
run capacity_frontier example_capacity_frontier 3 -j 4
run tenant_scaling example_tenant_scaling 256 -j 4
run detection_roc example_detection_roc 16 -j 4
run observer_sweep example_observer_sweep 3 -j 4
