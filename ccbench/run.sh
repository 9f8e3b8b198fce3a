#!/bin/sh
# Build ccbench in the checkout that is the current directory, then run it
# with the given arguments, e.g.
#
#   sh ccbench/run.sh --workload mice-fq --seed 1 --seconds 30 --trace 0
#
# dune's root is pinned to the current directory and its shared cache is
# off, so building reads and writes nothing outside the checkout.
exec dune exec --root . --cache=disabled ccbench/ccbench.exe -- "$@"
