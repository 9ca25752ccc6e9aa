#!/bin/sh
# Run the CLI regression list and keep every output.
#
# Usage: tools/cli_outputs.sh OUTDIR
#
# Runs each invocation below in CSV and in JSON from the checkout that holds
# this script, as `PYTHONPATH=src python -W error::RuntimeWarning -m
# muxrepeater ...`, and writes NN-FORMAT.out (stdout), NN-FORMAT.err
# (stderr) and NN-FORMAT.rc (exit code) to OUTDIR.  Two checkouts write the
# same bytes exactly when `diff -r OUT_A OUT_B` prints nothing.  Entries
# 16-20 drive a clock period, a lifetime or the spectral cutoff past the
# float range, where a run must still exit 0 with empty stderr.  Entries
# 21-25 run the list, node-count and seed options in a fresh process.
# Entry 26 searches up to N = 10**8, whose bytes equal those of
# --n-max 2000, and entry 27 walks the held Temporal chain out to N* = 300.
# Entries 28 and 29 run the midway-source baseline past 15,500 km, where its
# time per pair overflows the microsecond scale and prints inf.
#
# It then runs `--help` of the top-level parser and of every subcommand once,
# with COLUMNS=80 so the wrapping does not follow the terminal, and writes
# help-NAME.out, help-NAME.err and help-NAME.rc (NAME is the subcommand, or
# muxrepeater for the top level).
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
mkdir -p "$1" || exit 2
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.." || exit 2

n=0
while IFS= read -r invocation; do
    n=$((n + 1))
    for format in csv json; do
        base=$(printf '%s/%02d-%s' "$out" "$n" "$format")
        # word splitting of $invocation is intended: it holds the arguments
        # shellcheck disable=SC2086
        PYTHONPATH=src python -W error::RuntimeWarning -m muxrepeater \
            $invocation --format "$format" < /dev/null > "$base.out" 2> "$base.err"
        echo $? > "$base.rc"
    done
done <<'EOF'
presets
pg-curve
ef-curve
ef-curve --grid 0:400:50 --chi 0.2 --modes 10,500
limits
limits --n-nodes 5 --k-ref 20
spdc
rate-curve
rate-curve --grid 100:2000:40 --n-max 400
rate-curve --grid 100:1000:10 --platforms WV-MUX-QM,WV-parallel
rate-curve --grid 150:2600:5 --n-max 3000 --platforms WV-MUX-QM,WV-parallel --no-spdc
rate-curve --waiting-count nodes --grid 100:3000:30
optimize --arch semihierarchical --grid 100:2000:40
optimize --waiting-count nodes --arch semihierarchical
mc-validate --samples 200000 --seed 42
optimize --grid 100:1e308:2
optimize --arch semihierarchical --grid 100:1e308:2
ef-curve --modes 1e-320
ef-curve --grid 0:1e308:2 --modes 1e-320
ef-curve --grid 1e-310:1:2
pg-curve --grid 10:250:5:log --platforms Temporal,Lattice-SM
rate-curve --grid 100:1000:4:log --archs semihierarchical --platforms Lattice-SM,Temporal
optimize --platform Temporal --arch semihierarchical --grid 100:300:3 --n-max 50
limits --n-nodes Infinity --k-ref 100
mc-validate --samples 200000 --seed 42 --chain-samples 0
optimize --grid 100:200:2 --n-max 100000000
optimize --platform Temporal --arch semihierarchical --grid 148:152:9 --n-max 2000
spdc --grid 15000:17000:5
rate-curve --grid 10000:20000:3 --platforms Lattice-SM
EOF

for name in muxrepeater presets pg-curve ef-curve rate-curve optimize limits spdc mc-validate; do
    # the top level takes no subcommand, so its $command is empty
    command=${name#muxrepeater}
    # shellcheck disable=SC2086
    COLUMNS=80 PYTHONPATH=src python -W error::RuntimeWarning -m muxrepeater \
        $command --help < /dev/null > "$out/help-$name.out" 2> "$out/help-$name.err"
    echo $? > "$out/help-$name.rc"
done
