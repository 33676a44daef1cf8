#!/usr/bin/env bash
# postal_cli numeric arguments go through one typed parser
# (support/parse.hpp). Each invocation below must exit nonzero, print
# nothing on stdout, and name the offending argument on stderr. Only values
# the parser rejects are tried: never a huge lane count that is accepted.
#
# Usage: cli_numeric_args_test.sh <path/to/postal_cli>
set -u
cli=$1
fail=0

expect_reject() {
  local name=$1
  shift
  local err out code
  err=$(mktemp)
  out=$("$cli" "$@" 2>"$err")
  code=$?
  if [ "$code" -eq 0 ] || [ -n "$out" ] || ! grep -qF -- "error: $name: " "$err"; then
    echo "FAIL: postal_cli $* -> exit $code, stdout '$out', stderr '$(cat "$err")'"
    fail=1
  fi
  rm -f "$err"
}

expect_reject n tree 12abc 5/2
expect_reject n tree -3 2
expect_reject n oracle 99999999999999999999 5/2 makespan
expect_reject n bounds 0 5/2
expect_reject "--crash rank" consensus 9 2 --crash 4294967296:0
expect_reject --threads elect 8 2 --threads 4294967297
expect_reject --threads simulate 8 2 --threads 0
expect_reject n sweep 2,8x 1
expect_reject threads sweep 2,8 1 0
expect_reject m plan 8 -1 2
expect_reject --commands log 8 2 --commands 4294967296
expect_reject --crashes consensus 9 2 --seed 3 --crashes -1
expect_reject --seed elect 8 2 --seed 1e3
expect_reject "--reconfig rank" log 8 2 --reconfig x:4
expect_reject seed faults 16 2 7x 1
expect_reject --queue serve "poisson;grid=16;rate=1/4;jobs=4;mix=w1:n8:l2:m1" 7 --queue 5k
exit $fail
