"""Fixed reference job, timed next to every benchmark run.

Usage: python bench/refjob.py   (prints a row count and a checksum)

Per-row Python work of the same kind the CLI does (dict rows, float
arithmetic, ``log``, tuples, ``repr`` and ``join``), about 0.4 s on a
2-vCPU cloud VM.  It does not touch ``coda_ratios``, so no change to the
program moves it; only the host does.  The harness divides each run's
wall and CPU time by this job's, measured just before and just after the
run, which cancels the slowdowns other tenants of a shared host cause.
"""

import math

ROWS = 150_000

out = []
acc = 0.0
for i in range(1, ROWS + 1):
    row = {"a": i * 0.5, "b": i * 1.25, "c": math.log(i)}
    t = (row["a"] / row["b"], math.sqrt(row["c"]), float(i))
    acc += t[0] * t[1]
    out.append(",".join(repr(x) for x in t))
print(len(out), repr(acc))
