"""Compare benchmark results: ``python3 bench/compare.py BASE.json CHANGE.json``.

Both files come from ``bench/run.py --out``.  One row per workload and
end-to-end metric gives both medians with their quartiles, the ratio with its
base, and a verdict against the bound ``BENCHMARK.json`` fixes:

``regressed``   the change's median is worse than the base's by more than the bound;
``improved``    it is better by more than the bound (one pair), or it wins at
                least nine tenths of the pairs and the medians differ by more
                than the base's interquartile distance (several pairs);
``unchanged``   neither, and the spread is within the bound;
``unresolved``  the spread exceeds the bound and the two sets of samples overlap.

With one pair the samples are the passes inside each run.  Give more pairs
(``BASE1 CHANGE1 BASE2 CHANGE2 ...``, run alternately) and the samples are
the runs' headline values, compared pair by pair.  Two runs of the same code
should print no ``regressed`` or ``unresolved`` row; the exit status says so.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    paired: bool = False,
) -> str:
    """The verdict on one metric of one workload (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    scale = abs(base_median)
    worse_by = sign * (change_median - base_median) / scale
    spread = max(base_q3 - base_q1, change_q3 - change_q1) / scale
    # Signed so that smaller is better, whatever the metric's direction.
    base_signed = [sign * value for value in base]
    change_signed = [sign * value for value in change]
    all_better = max(change_signed) < min(base_signed)
    all_worse = min(change_signed) > max(base_signed)
    noisy = spread > bound and not (all_better or all_worse)

    if worse_by > bound:
        return "unresolved" if noisy else "regressed"
    if paired:
        wins = sum(c < b for b, c in zip(base_signed, change_signed))
        gained = (
            wins >= 0.9 * len(base)
            and abs(change_median - base_median) > base_q3 - base_q1
            and worse_by < 0
        )
    else:
        gained = worse_by < -bound and not noisy
    if gained:
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def load(path: str) -> Dict[str, dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["workloads"]


def samples(runs: List[Dict[str, dict]], workload: str, metric: str) -> List[float]:
    """Passes of the single run, or the headline value of each of many runs."""
    entries = [run[workload]["end_to_end"]["metrics"][metric] for run in runs]
    if len(entries) == 1:
        return entries[0]["values"]
    return [entry["value"] for entry in entries]


def compare(files: Sequence[str], spec: dict) -> Tuple[List[str], bool]:
    """Rows of the report, and whether every row is resolved and not worse."""
    bases = [load(path) for path in files[0::2]]
    changes = [load(path) for path in files[1::2]]
    rows = [
        f"{'workload':<20} {'metric':<18} {'base median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36}  ratio (base)            verdict"
    ]
    agree = True
    for workload in bases[0]:
        if any("end_to_end" not in run.get(workload, {}) for run in bases + changes):
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = samples(bases, workload, name)
            change = samples(changes, workload, name)
            verdict = judge(
                base, change, metric["better"], metric["bound"], paired=len(bases) > 1
            )
            agree &= verdict in ("unchanged", "improved")
            b1, b2, b3 = quartiles(base)
            c1, c2, c3 = quartiles(change)
            rows.append(
                f"{workload:<20} {name:<18} "
                f"{f'{b2:.5g} [{b1:.5g}, {b3:.5g}]':>36} "
                f"{f'{c2:.5g} [{c1:.5g}, {c3:.5g}]':>36}  "
                f"{c2 / b2:.3f}x of {b2:<12.5g} {verdict}"
            )
        digests = {
            run[workload]["end_to_end"]["stats_digest"] for run in bases + changes
        }
        same = len(digests) == 1
        agree &= same
        rows.append(
            f"{workload:<20} {'stats_digest':<18} "
            f"{'identical' if same else 'DIFFERS: simulated statistics changed'}"
        )
    return rows, agree


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, agree = compare(argv, spec)
    print("\n".join(rows))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
