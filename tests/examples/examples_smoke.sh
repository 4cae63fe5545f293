#!/bin/sh
# Smoke test for examples/: pipes a fixed SQL script into sql_shell and
# checks its whole output, then runs quickstart and expects exit 0.
# Registered with ctest under the `examples` label; by hand:
#
#   sh tests/examples/examples_smoke.sh build/examples/sql_shell \
#       build/examples/quickstart
#
# The script covers CREATE TABLE, a 4-row INSERT, a failing INSERT that
# must leave COUNT(*) at 4 (one all-or-nothing append), LOAD CSV, a
# SELECT through a mixed-case table name, RECOMMEND, and COUNT(*) on the
# built-in `patients` table.  The RECOMMEND cost line carries timings and
# is compared as `cost=*`.

set -u
sql_shell=$1
quickstart=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

printf 'day,region,revenue\n5,north,50\n6,south,65\n' > "$dir/more.csv"

"$sql_shell" > "$dir/raw.txt" 2>&1 <<EOF
CREATE TABLE Sales (day INT DIMENSION, region TEXT, revenue DOUBLE MEASURE);
INSERT INTO sales VALUES (1, 'north', 10), (2, 'south', 20),
  (3, 'north', 30), (4, 'south', 40);
INSERT INTO sales VALUES (5, 'north', 50), ('bad', 'south', 60);
SELECT COUNT(*) FROM sales;
LOAD CSV '$dir/more.csv' INTO SALES;
SELECT region, COUNT(*) AS n FROM SaLeS GROUP BY region ORDER BY region;
RECOMMEND TOP 2 VIEWS FROM sales WHERE region = 'south' USING LINEAR;
SELECT COUNT(*) FROM patients;
EOF
shell_status=$?

sed -e 's/[[:space:]]*$//' -e 's/^  cost=.*/  cost=*/' \
    -e "s|$dir|DIR|" "$dir/raw.txt" > "$dir/actual.txt"
cat > "$dir/expected.txt" <<'EOF'
created table Sales
inserted 4 rows into sales
error: invalid_argument: row 2: column 'day' expects int64, got string
COUNT(*)
4
(1 rows)
loaded 2 rows from 'DIR/more.csv' into SALES
region  n
north   3
south   3
(2 rows)
Linear-Linear top-2:
  1. COUNT(revenue) BY day [b=1] U=0.800 (D=0.000 A=1.000 S=1.000)
  2. AVG(revenue) BY day [b=1] U=0.724 (D=0.000 A=0.621 S=1.000)
  cost=*
COUNT(*)
768
(1 rows)
EOF

fail=0
if [ "$shell_status" -ne 0 ]; then
  echo "sql_shell exited $shell_status"
  fail=1
fi
if ! diff -u "$dir/expected.txt" "$dir/actual.txt"; then
  echo "sql_shell output differs from the expected transcript"
  fail=1
fi
if ! "$quickstart" > "$dir/quickstart.txt" 2>&1; then
  echo "quickstart failed:"
  cat "$dir/quickstart.txt"
  fail=1
fi
exit $fail
