"""Compare two result sets, metric by metric, against the benchmark's bounds.

A result set is a directory of result files written by ``run.py`` (only
untraced runs are read).  For each workload and each end-to-end metric the
comparison prints both sides' median and quartiles, the change of the
median as a share of the base median, the metric's bound, and a label:

* ``unresolved`` -- either side's quartile spread (as a share of its
  median) is wider than the bound, and not every run of the change reads
  better than every run of the base;
* ``worse`` -- the change's median is worse by more than the bound;
* ``better`` -- the medians differ in the better direction by more than the
  base's own quartile spread, and the change wins at least nine tenths of
  the run pairs (runs paired by seed, ties counting for neither side);
* ``unchanged`` -- none of the above: within the bound.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

__all__ = ["load_results", "judge", "compare"]

#: Share of run pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def load_results(directory: Path) -> dict[str, list[dict]]:
    """Untraced result records of ``directory`` (recursively), by workload."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(record, dict) or record.get("trace", True) \
                or "metrics" not in record:
            continue
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _pairs(base: list[tuple], change: list[tuple]) -> list[tuple]:
    """(base, change) value pairs: by seed where seeds match, else by order."""
    base_by_seed = dict(base)
    matched = [(base_by_seed[seed], value) for seed, value in change
               if seed in base_by_seed]
    if matched:
        return matched
    return list(zip([value for _, value in base],
                    [value for _, value in change]))


def judge(base: list[tuple], change: list[tuple], better: str,
          bound: float) -> dict:
    """Label one metric; ``base``/``change`` are (seed, value) lists."""
    sign = 1.0 if better == "higher" else -1.0
    a = [value for _, value in base]
    b = [value for _, value in change]
    qa, qb = _quartiles(a), _quartiles(b)
    delta = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
    gain = sign * delta
    spread_a = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else float("inf")
    spread_b = (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else float("inf")
    pairs = _pairs(base, change)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    every_run_better = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread_a, spread_b) > bound and not every_run_better:
        label = "unresolved"
    elif gain < -bound:
        label = "worse"
    elif ((gain > spread_a and pairs and wins >= WIN_SHARE * len(pairs))
          or (every_run_better and max(spread_a, spread_b) > bound)):
        label = "better"
    else:
        label = "unchanged"
    return {"base": qa, "change": qb, "delta": delta, "bound": bound,
            "spread_base": spread_a, "spread_change": spread_b,
            "wins": wins, "pairs": len(pairs), "label": label}


def compare(base_dir: Path, change_dir: Path, spec: dict) -> int:
    base = load_results(base_dir)
    change = load_results(change_dir)
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in base and w["name"] in change]
    if not workloads:
        print(f"no workload has untraced results in both {base_dir} and "
              f"{change_dir}")
        return 1
    for workload in workloads:
        print(f"{workload}: {len(base[workload])} base runs, "
              f"{len(change[workload])} change runs")
        print(f"  {'metric':<14} {'base median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'delta':>8} {'bound':>6}"
              "  label")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[(record["seed"], record["metrics"][name]["value"])
                       for record in side[workload]
                       if name in record["metrics"]]
                      for side in (base, change)]
            if not values[0] or not values[1]:
                continue
            verdict = judge(values[0], values[1], metric["better"],
                            metric["bound"])
            qa, qb = verdict["base"], verdict["change"]
            print(f"  {name:<14} {qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                  f" {qb[1]:>12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
                  f" {100 * verdict['delta']:>+7.1f}% "
                  f"{100 * metric['bound']:>5.0f}%  {verdict['label']}"
                  f" ({verdict['wins']}/{verdict['pairs']} pairs won)")
    return 0
