#!/bin/sh
# Compile matrix: every builtin benchmark under every flow on every target,
# as text and pulse IR, so two builds can be compared file by file.
#
#   tools/compile_matrix.sh EPOC_BIN OUT_DIR
#
# EPOC_BIN is an epoc_cli executable; OUT_DIR is created if missing.  For
# each case <bench>.<flow>.<target> it writes
#
#   <case>.txt      `compile --schedule` stdout without its compile-time
#                   line, then stderr, then "exit N" if N is not 0
#   <case>.ir.json  the `--export-ir` pulse IR
#
# Targets are the default model and the line8, grid3x3 and heavyhex12
# devices; flows are epoc, gate, accqoc and paqoc.  Every case runs on one
# domain (EPOC_JOBS=1) without persistent stores, fault injection or an
# ambient device, so its output depends only on the build.  Compare two
# builds with `diff -r OUT_A OUT_B`.
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 EPOC_BIN OUT_DIR" >&2
  exit 2
fi

bin=$1
out=$2
case "$bin" in
  /*) ;;
  *) bin="$(pwd)/$bin" ;;
esac
mkdir -p "$out"
cd "$out"

unset EPOC_CACHE EPOC_SYNTH_CACHE EPOC_DEVICE EPOC_FAULT EPOC_DEADLINE
export EPOC_JOBS=1

benches=$("$bin" list | awk '{ print $1 }')
cases=0
for b in $benches; do
  for flow in epoc gate accqoc paqoc; do
    for target in default line8 grid3x3 heavyhex12; do
      name="$b.$flow.$target"
      if [ "$target" = default ]; then
        set -- --flow "$flow"
      else
        set -- --flow "$flow" --device "$target"
      fi
      # the IR is named relative to OUT_DIR, so stdout's "wrote pulse IR
      # to ..." line is the same for any OUT_DIR
      code=0
      "$bin" compile "bench:$b" --schedule --export-ir "$name.ir.json" "$@" \
        > "$name.stdout" 2> "$name.stderr" || code=$?
      grep -v '^compile time' "$name.stdout" > "$name.txt" || true
      cat "$name.stderr" >> "$name.txt"
      if [ "$code" -ne 0 ]; then echo "exit $code" >> "$name.txt"; fi
      rm -f "$name.stdout" "$name.stderr"
      cases=$((cases + 1))
    done
  done
done
echo "compile matrix: $cases cases in $out"
