"""Compare two benchmark results metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is either a ``run.py --workload all --out`` file or a single
run's record from ``.perfbench_out``.  Results from different backends
measure different programs, so the comparison is refused (exit code 2).
"""
from __future__ import annotations

import json
import sys


def _results(doc: dict) -> dict:
    if "results" in doc:
        return {w: r["metrics"] for w, r in doc["results"].items()}
    metrics = {name: {"value": value} for name, value in doc["metrics"].items()}
    return {doc["workload"]: metrics}


def compare(base: dict, new: dict) -> list[str]:
    """Lines of 'workload metric base new change'; raises on a backend
    mismatch."""
    b_backend = base["machine"]["backend"]
    n_backend = new["machine"]["backend"]
    if b_backend != n_backend:
        raise ValueError(f"backends differ: {b_backend} vs {n_backend}")
    lines = []
    new_results = _results(new)
    for workload, metrics in _results(base).items():
        for name, metric in metrics.items():
            if name not in new_results.get(workload, {}):
                continue
            a = metric["value"]
            b = new_results[workload][name]["value"]
            change = ("" if a is None or b is None or a == 0
                      else f"{(b - a) / abs(a):+.1%}")
            lines.append(f"{workload:<14} {name:<40} {a!s:>22} {b!s:>22} "
                         f"{change}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    try:
        lines = compare(*docs)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
