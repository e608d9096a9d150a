#!/bin/sh
# Exit codes of the frozenrank CLI: 0 success, 2 usage error, 3 resource cap.
# Run from the repository root: sh .github/scripts/cli_exit_codes.sh
# Scratch files go to $RUNNER_TEMP, or to a temporary directory removed on exit.
set -eu
if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp=$RUNNER_TEMP
else
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
fi

expect() {
  want=$1; shift; got=0
  PYTHONPATH=src python -m frozenrank.cli "$@" > "$tmp/cli.out" || got=$?
  if [ "$got" -ne "$want" ]; then echo "exit $got, expected $want: $*"; exit 1; fi
}

expect 0 simulate --n 60 --d 2 --trials 2
test "$(head -n 1 "$tmp/cli.out")" = "#frozenrank-v1"
# "Fp:2" names F2: the CSV prints the canonical label, so the bytes are F2's
mv "$tmp/cli.out" "$tmp/f2.csv"
expect 0 simulate --field Fp:2 --n 60 --d 2 --trials 2
cmp "$tmp/f2.csv" "$tmp/cli.out"
expect 0 census --n 60 --d 2 --P 8 --trials 2
test "$(head -n 1 "$tmp/cli.out")" = "#frozenrank-v1"
expect 2 ks --n 60 --d 2 --trials -1
# the PRF reads seeds modulo 2^64: a seed outside [0, 2^64) is refused, not aliased
expect 2 simulate --n 30 --d 2 --trials 1 --seed -1
expect 2 ks --n 30 --d 2 --trials 1 --seed 18446744073709551616
expect 2 census --n 30 --d 2 --P 8 --trials 1 --pert-seed -1
expect 0 simulate --n 30 --d 2 --trials 1 --seed 18446744073709551615
# no more workers than trials: one trial runs in this process, with no pool
expect 0 simulate --n 60 --d 2 --trials 1 --workers 4
# a census CSV's first eleven columns are the simulate CSV: a census trial
# leaf-removes the graph it samples, a simulate trial the support alone
flags="--n 300 --d 3 --trials 3 --field Fp:2147483647 --template random"
expect 0 census $flags --P 8
cut -d, -f1-11 "$tmp/cli.out" > "$tmp/census_base.csv"
expect 0 simulate $flags
cmp "$tmp/census_base.csv" "$tmp/cli.out"
# a process pool forked after the parent has sampled: no sampler thread may outlive its call
expect 0 simulate --n 300 --d 3 --trials 4 --workers 2
expect 0 census --field Q --n 100 --d 2 --P 8 --trials 1
# the widest census array, [B^T | E_k], over both large fields
expect 0 census --field Fp:2147483647 --template random --n 2000 --d 2 --P 8 --trials 1
expect 0 census --field Q --template random --n 300 --d 2 --P 8 --trials 1
expect 3 census --field Q --n 5000 --d 2 --P 8 --trials 1
# each theta is at most P, so a P above the dense cap is refused before sampling
expect 3 census --n 30 --d 2 --P 100000000000 --trials 1
expect 0 simulate --field Q --template random --n 400 --d 3 --trials 2
expect 0 simulate --field Q --n 400 --d 3 --trials 4
expect 0 simulate --field Fp:2147483647 --template random --n 4096 --d 3 --trials 1
# sparse_rank's pivots over a small field, where they cancel most
expect 0 simulate --field Fp:3 --template random --n 4096 --d 3 --trials 1
# a core dense from the start: the pivot loop takes no pivot and hands it to the dense kernel whole
expect 0 simulate --field Fp:2147483647 --template random --n 400 --d 100 --trials 1
# one of these all-ones Q cores is rank-deficient: it is lifted after the sparse rank
expect 0 simulate --field Q --n 2000 --d 3 --trials 3
expect 2 simulate --n 20 --d 100 --trials 1
expect 0 simulate --n 40 --d 40 --trials 2
expect 0 analytic --d-min 0 --d-max 5 --step 0.5
expect 0 analytic --d-min 36 --d-max 40 --step 1
# the integral identity far past d = e, where its quadrature needs the most panels
expect 0 analytic --d-min 100 --d-max 1000 --step 450
# a non-finite bound or step is refused, and so is a grid of too many points,
# before any point is evaluated
expect 2 analytic --d-min 0 --d-max 1 --step nan
expect 2 analytic --d-min 0 --d-max inf --step 1
expect 3 analytic --d-min 0 --d-max 1 --step 1e-300
expect 0 verify --suite analytic
expect 0 verify --suite all
expect 2 ks --n 20 --d 100 --trials 1
# the edge support does not depend on the field or the template
expect 0 ks --n 2000 --d 3 --trials 3
mv "$tmp/cli.out" "$tmp/ks_f2.csv"
expect 0 ks --n 2000 --d 3 --trials 3 --field Q --template random
cmp "$tmp/ks_f2.csv" "$tmp/cli.out"
# ks and simulate, each in its own process, derive every trial's seed and
# support alike: the same seed columns and the same leaf-removal counts, for
# supports the memo holds (n * d at most 2^14) and for larger ones, which it
# computes on every call
for flags in "--n 300 --d 3 --trials 3 --seed 5" "--n 4096 --d 5 --trials 2 --seed 5"; do
  expect 0 ks $flags
  mv "$tmp/cli.out" "$tmp/ks.csv"
  expect 0 simulate $flags
  cut -d, -f1-4 "$tmp/ks.csv" > "$tmp/ks_seeds.csv"
  cut -d, -f1-4 "$tmp/cli.out" > "$tmp/simulate_seeds.csv"
  cmp "$tmp/ks_seeds.csv" "$tmp/simulate_seeds.csv"
  cut -d, -f5,6 "$tmp/ks.csv" > "$tmp/ks_counts.csv"
  cut -d, -f10,11 "$tmp/cli.out" > "$tmp/simulate_counts.csv"
  cmp "$tmp/ks_counts.csv" "$tmp/simulate_counts.csv"
done
printf '3 3 Fp:3\n0 1 0\n1 0 2\n0 2 0\n' > "$tmp/f3.txt"
expect 0 classify --matrix "$tmp/f3.txt"
printf '3 3 Q\n0 1/2 0\n1/2 0 -3/4\n0 -3/4 0\n' > "$tmp/q3.txt"
expect 0 classify --matrix "$tmp/q3.txt"
printf '0 -3 F2\n' > "$tmp/negdim.txt"
expect 2 classify --matrix "$tmp/negdim.txt"
printf '7 5 F2\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n4 5 1\n' > "$tmp/graph.txt"
expect 0 ks --graph "$tmp/graph.txt"
printf '7 5 Q\n0 1 1/2\n1 2 -3\n2 3 2/3\n0 3 1\n4 5 -1/7\n' > "$tmp/qgraph.txt"
expect 0 ks --graph "$tmp/qgraph.txt"
# more vertices than the sampler and leaf removal take: refused before
# their arrays of n entries are allocated
expect 3 ks --n 100000000 --d 0 --trials 1
printf '1000000000 1 F2\n0 1 1\n' > "$tmp/huge.txt"
expect 3 ks --graph "$tmp/huge.txt"
printf '3 2 Fp:3\n0 1 1\n1 2 0\n' > "$tmp/zero.txt"
expect 2 ks --graph "$tmp/zero.txt"
printf '3 2 F2\n0 1 1\n1 3 1\n' > "$tmp/range.txt"
expect 2 ks --graph "$tmp/range.txt"
printf '3 2 F2\n0 1 1\n1 0 1\n' > "$tmp/revdup.txt"
expect 2 ks --graph "$tmp/revdup.txt"
python3 -c 'print("65 65 Q"); print(("0 " * 65 + "\n") * 65, end="")' > "$tmp/q65.txt"
expect 0 classify --matrix "$tmp/q65.txt"
# a dense 48 x 48 matrix with no zero entry and a repeated row, whose
# eliminations clear every row below or above each pivot, and the same
# matrix with its rows reversed: the same rank and frozen columns
for field in Fp:3 Fp:2147483647; do
  for order in 1 -1; do
    python3 -c 'import sys
p, order = int(sys.argv[1][3:]), int(sys.argv[2])
x, rows = 1, []
for i in range(47):
    row = []
    for j in range(48):
        x = (x * 1103515245 + 12345) % 2**31
        row.append(str(1 + (x >> 16) % (p - 1)))
    rows.append(" ".join(row))
rows.append(rows[0])
print("48 48", sys.argv[1])
print("\n".join(rows[::order]))' "$field" "$order" > "$tmp/dense.txt"
    expect 0 classify --matrix "$tmp/dense.txt"
    python3 -c 'import json, sys
d = json.load(open(sys.argv[1]))
print(d["rank"], d["frozen_columns"])' "$tmp/cli.out" > "$tmp/dense_$order.txt"
  done
  cmp "$tmp/dense_1.txt" "$tmp/dense_-1.txt"
done
# a 6 x 6 matrix with a dependent row, which the dense kernel eliminates on
# Python-int rows, and the same matrix with 12 zero rows appended, whose 108
# cells (above exactla.ROW_LOOP_CELLS) take the numpy loop: zero rows change
# neither the rank nor the frozen columns
for field in Fp:3 Fp:2147483647; do
  for zeros in 0 12; do
    python3 -c 'import sys
p, zeros = int(sys.argv[1][3:]), int(sys.argv[2])
x, rows = 7, []
for i in range(5):
    row = []
    for j in range(6):
        x = (x * 1103515245 + 12345) % 2**31
        row.append((x >> 16) % p if (x >> 8) % 2 else 0)
    rows.append(row)
rows.append([(a + b) % p for a, b in zip(rows[0], rows[1])])
rows += [[0] * 6] * zeros
print(len(rows), 6, sys.argv[1])
print("\n".join(" ".join(map(str, row)) for row in rows))' "$field" "$zeros" > "$tmp/small.txt"
    expect 0 classify --matrix "$tmp/small.txt"
    python3 -c 'import json, sys
d = json.load(open(sys.argv[1]))
print(d["rank"], d["frozen_columns"])' "$tmp/cli.out" > "$tmp/small_$zeros.txt"
  done
  cmp "$tmp/small_0.txt" "$tmp/small_12.txt"
done
echo "CLI exit codes as expected"
