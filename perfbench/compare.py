#!/usr/bin/env python3
"""Compare two saved runs of the benchmark, metric by metric.

Usage: python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the standard output of one run: the identity line and the
result line it ends with. The comparison is refused (exit 2) when the two
runs measured different inputs (workload, seed or digest) or ran on
different hosts (core count or CPU model).
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if len(lines) < 2:
        sys.exit(f"{path}: expected an identity line and a result line")
    return json.loads(lines[-2])["identity"], json.loads(lines[-1])


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (id_a, res_a), (id_b, res_b) = load(sys.argv[1]), load(sys.argv[2])
    for key in ("workload", "seed", "period_scale", "digest", "host"):
        if id_a[key] != id_b[key]:
            print(f"refusing to compare: {key} differs ({id_a[key]} vs {id_b[key]})")
            sys.exit(2)
    for res, path in ((res_a, sys.argv[1]), (res_b, sys.argv[2])):
        if not res["correct"]:
            print(f"refusing to compare: {path} failed its checks")
            sys.exit(2)
    print(f"{id_a['workload']} seed {id_a['seed']} digest {id_a['digest']}")
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            continue
        change = "" if a["value"] == 0 else f"{b['value'] / a['value'] - 1:+.2%}"
        print(f"  {name:34} {a['value']:>14.4f} -> {b['value']:>14.4f} {a['unit']:6} {change}")


if __name__ == "__main__":
    main()
