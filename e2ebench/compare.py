"""Compare two benchmark results under the bounds in ``BENCHMARK.json``.

``python3 e2ebench/run.py compare A.json B.json`` reads two results
(``result.json`` from ``--workload all``, or one run's ``--out`` file),
with A the baseline.  It prints one row per (metric, workload):

* end-to-end metrics read ``better``, ``worse`` or ``within`` by the
  metric's bound, or ``unresolved`` when the spread of the rounds (or
  set-ups) inside either run is wider than the bound, or unknown because
  a run had only one;
* payload digests and per-layer counts read ``equal`` or ``mismatch``:
  they must repeat exactly.

It exits 1 when any row reads ``worse`` or ``mismatch``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Counts that depend on request timing, so they need not repeat: a hot
#: request coalesces only when it arrives while its leader still runs.
TIMING_COUNTS = frozenset({"service.coalesced"})

Row = Tuple[str, str, str, str, str]


def load_runs(path: Path) -> Dict[str, Dict[str, Any]]:
    """workload -> {"trace0": record, "trace1": record} from a result file."""
    data = json.loads(Path(path).read_text())
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: {f"trace{data['trace']}": data}}


def verdict(
    before: float, after: float, better: str, bound: float, noise: Optional[float] = 0.0
) -> str:
    """How *after* reads against *before* for a metric with this bound.

    *noise* is the relative spread within the runs; ``None`` means it is
    unknown.
    """
    if noise is None or noise > bound or before == 0:
        return "unresolved"
    change = (after - before) / before
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within"


def compare(
    before: Dict[str, Dict[str, Any]],
    after: Dict[str, Dict[str, Any]],
    spec: Dict[str, Any],
) -> List[Row]:
    """Rows (metric, workload, before, after, verdict) for shared workloads."""
    counts = [
        metric["name"]
        for metric in spec["per_layer"]
        if metric["unit"] == "count" and metric["name"] not in TIMING_COUNTS
    ]
    rows: List[Row] = []
    for workload in sorted(set(before) & set(after)):
        a0, b0 = before[workload].get("trace0"), after[workload].get("trace0")
        if a0 and b0 and "metrics" in a0 and "metrics" in b0:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                va = a0["metrics"][name]["value"]
                vb = b0["metrics"][name]["value"]
                spreads = [run.get("spread", {}).get(name, 0.0) for run in (a0, b0)]
                noise = None if None in spreads else max(spreads)
                rows.append(
                    (name, workload, f"{va:.6g}", f"{vb:.6g}",
                     verdict(va, vb, metric["better"], metric["bound"], noise))
                )
        for trace in ("trace0", "trace1"):
            a, b = before[workload].get(trace), after[workload].get(trace)
            if a and b and a.get("digest") and b.get("digest"):
                rows.append(
                    (f"digest.{trace}", workload, a["digest"][:12], b["digest"][:12],
                     "equal" if a["digest"] == b["digest"] else "mismatch")
                )
        a1, b1 = before[workload].get("trace1"), after[workload].get("trace1")
        if a1 and b1 and "metrics" in a1 and "metrics" in b1:
            for name in counts:
                va = a1["metrics"][name]["value"]
                vb = b1["metrics"][name]["value"]
                rows.append(
                    (name, workload, f"{va:g}", f"{vb:g}",
                     "equal" if va == vb else "mismatch")
                )
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    rows = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), spec)
    print(f"{'metric':34s} {'workload':14s} {'before':>14s} {'after':>14s}  verdict")
    for name, workload, va, vb, reading in rows:
        print(f"{name:34s} {workload:14s} {va:>14s} {vb:>14s}  {reading}")
    bad = [row for row in rows if row[4] in ("worse", "mismatch")]
    print(f"{len(rows)} rows, {len(bad)} worse or mismatched")
    return 1 if bad else 0
