"""Compare benchmark runs of two commits, or measure one commit's noise.

Each directory holds run JSONs written by ``run.py --json FILE`` with
``--trace 0``; runs are ordered by file name, so name them by run index
(``fig10-cold-00.json`` ...).  Run the parent and the change
alternately, one pair at a time, with the same seeds on both sides.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py --spread DIR

The comparison prints, for every end-to-end metric and workload, each
side's median and quartiles, how much worse the change's median is
than the parent's, the change's win fraction over the run pairs (ties
count for neither side) and a verdict:

* ``exact`` / ``DIFF`` — a deterministic metric must read the same on
  both sides at every seed both sides ran;
* ``unresolved`` — the parent's own spread (quartile distance over the
  median) exceeds the metric's bound, and not every change run beats
  every parent run;
* ``REGRESSION`` — the change's median is worse by more than the bound;
* ``gain`` — the change wins at least nine tenths of the pairs and its
  median is better by more than the parent's quartile distance (the
  rule a claimed gain must meet);
* ``ok`` otherwise.

``--spread`` prints each metric's spread over the runs of one
directory: the quartile distance and the max-min range, both relative
to the median, against the bound in BENCHMARK.json.  Its "suggest"
column is the calibration rule: max(10%, range) for a timing metric.

Exit status 1 when any metric regresses or a deterministic metric
differs (or, with ``--spread``, exceeds its bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent.parent / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

from run import DETERMINISTIC  # noqa: E402


def load_runs(directory: str) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("trace") == 0:
            runs.setdefault(doc["workload"], []).append(doc)
    return runs


def value(run: dict, metric: str) -> float:
    return run["result"]["metrics"][metric]["value"]


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def rel(delta: float, base: float) -> float:
    return delta / base if base else (0.0 if delta == 0 else float("inf"))


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it
    (negative: better)."""
    delta = change - parent if better == "lower" else parent - change
    return rel(delta, parent)


def compare(parent_dir: str, change_dir: str, metrics: List[dict]) -> int:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    status = 0
    print(f"{'workload':<14} {'metric':<22} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'worse':>7} {'wins':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for spec in metrics:
            name, bound, better = spec["name"], spec["bound"], spec["better"]
            p = [value(r, name) for r in p_runs]
            c = [value(r, name) for r in c_runs]
            pq, cq = quartiles(p), quartiles(c)
            worse = worse_by(pq[1], cq[1], better)
            pairs = list(zip(p, c))
            wins = sum(1 for a, b in pairs if worse_by(a, b, better) < 0)
            if name in DETERMINISTIC:
                by_seed: Dict[int, set] = {}
                for run in p_runs + c_runs:
                    by_seed.setdefault(run["seed"], set()).add(
                        value(run, name))
                verdict = ("exact" if all(len(v) == 1
                                          for v in by_seed.values())
                           else "DIFF")
            elif rel(pq[2] - pq[0], pq[1]) > bound and not (
                    all(worse_by(a, b, better) < 0 for a in p for b in c)):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            elif (wins >= 0.9 * len(pairs) and worse < 0
                  and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
                verdict = "gain"
            else:
                verdict = "ok"
            if verdict in ("DIFF", "REGRESSION"):
                status = 1
            print(f"{workload:<14} {name:<22} "
                  f"{pq[0]:>9.4g}/{pq[1]:>8.4g}/{pq[2]:>9.4g} "
                  f"{cq[0]:>9.4g}/{cq[1]:>8.4g}/{cq[2]:>9.4g} "
                  f"{worse:>+7.1%} {wins:>2d}/{len(pairs):<2d} {verdict}"
                  f" (bound {bound:.0%})")
    return status


def spread(directory: str, metrics: List[dict]) -> int:
    runs = load_runs(directory)
    status = 0
    print(f"{'workload':<14} {'metric':<22} {'n':>3} {'median':>10} "
          f"{'iqr/med':>8} {'range/med':>9} {'suggest':>8} {'bound':>6}")
    for workload in sorted(runs):
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            values = [value(r, name) for r in runs[workload]]
            q1, median, q3 = quartiles(values)
            iqr = rel(q3 - q1, median)
            span = rel(max(values) - min(values), median)
            suggest = "exact" if name in DETERMINISTIC \
                else f"{max(0.10, span):.1%}"
            flag = ""
            if name != "setup_s" and iqr > bound:
                flag, status = "  OVER BOUND", 1
            elif iqr > bound / 3:
                flag = "  over bound/3"
            print(f"{workload:<14} {name:<22} {len(values):>3} "
                  f"{median:>10.4g} {iqr:>8.2%} {span:>9.2%} "
                  f"{suggest:>8} {bound:>6.0%}{flag}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare two commits' benchmark runs (README.md)")
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument("--spread", action="store_true",
                        help="report one directory's run-to-run spread")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    if args.spread:
        return max(spread(d, metrics) for d in args.dirs)
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    return compare(args.dirs[0], args.dirs[1], metrics)


if __name__ == "__main__":
    sys.exit(main())
