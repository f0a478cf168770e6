"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py --base base/*.txt --new new/*.txt

Each file is the standard output of one ``perfbench/run.py`` run. Files are
grouped by the workload named in their header line and paired by seed. For
every metric the table shows each side's median and quartile spread, the
change of the medians, the bound from BENCHMARK.json, and a verdict:

- ``regressed``: the new median is worse than the base median by more than
  the bound;
- ``unresolved``: the base spread is wider than the bound, so no claim either
  way (unless every new run beats every base run);
- ``gain``: the new run wins at least 9 of 10 seed pairs and the medians
  differ by more than the base spread;
- ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

HEADER = re.compile(r"workload=(\S+) seed=(\S+)")
PRINTED = re.compile(r"^([A-Za-z][\w.]*)\s+(\S+)")
#: Printed metrics outside BENCHMARK.json where higher is better.
HIGHER = {"reduction_rate_min", "reduction_rate_max", "u_prefix_value_ratio", "exact_ratio_mean"}


def load(paths: list[str]) -> dict:
    """workload -> seed -> metrics, from captured run.py outputs.

    A file holds one report per workload (several after ``--workload all``):
    a header line, "name value unit" lines, and the JSON result line.
    """
    out: dict = {}
    for path in paths:
        head = None
        for line in Path(path).read_text().splitlines():
            found = HEADER.search(line)
            if found:
                head, metrics = found, {}
                out.setdefault(head.group(1), {})[head.group(2)] = metrics
            elif head is None:
                continue
            elif line.startswith("{"):
                metrics.update({k: v["value"] for k, v in json.loads(line)["metrics"].items()})
            elif PRINTED.match(line):
                name, value = PRINTED.match(line).groups()
                metrics[name] = float(value)
        if head is None:
            sys.exit(f"{path}: not a run.py output")
    return out


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]], lower: bool, bound) -> str:
    sign = 1.0 if lower else -1.0
    b_med, b_spread = spread(base)
    n_med, _ = spread(new)
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0  # > 0 is worse
    if bound is not None and change > bound:
        return "regressed"
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if bound is not None and b_spread > bound and not all_better:
        return "unresolved"
    wins = sum(sign * n < sign * b for b, n in pairs)
    if pairs and wins >= 0.9 * len(pairs) and -change > b_spread:
        return "gain"
    return "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True, help="run.py outputs of the parent")
    ap.add_argument("--new", nargs="+", required=True, help="run.py outputs of the change")
    ap.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    declared = json.loads(Path(args.benchmark).read_text())
    spec = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    base, new = load(args.base), load(args.new)
    print(f"{'workload':<16} {'metric':<34} {'base':>12} {'spread':>7} {'new':>12} {'spread':>7} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        names = sorted(set().union(*b_runs.values()) & set().union(*n_runs.values()))
        for name in names:
            b = [r[name] for r in b_runs.values() if name in r]
            n = [r[name] for r in n_runs.values() if name in r]
            pairs = [
                (b_runs[s][name], n_runs[s][name])
                for s in set(b_runs) & set(n_runs)
                if name in b_runs[s] and name in n_runs[s]
            ]
            meta = spec.get(name, {"better": "higher" if name in HIGHER else "lower"})
            lower = meta["better"] == "lower"
            bound = meta.get("bound")
            b_med, b_sp = spread(b)
            n_med, n_sp = spread(n)
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            print(
                f"{workload:<16} {name:<34} {b_med:>12.6g} {b_sp:>7.1%} {n_med:>12.6g} {n_sp:>7.1%} "
                f"{change:>+8.1%} {'' if bound is None else format(bound, '.0%'):>6}  "
                f"{verdict(b, n, pairs, lower, bound)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
