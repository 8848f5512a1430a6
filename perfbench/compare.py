"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files as run.py writes them under
``.bench_out/results/``. For each workload and metric it prints the median
of each side, the after/before ratio, and the run count. It refuses
(exit 2) to compare results whose kernel backend differs: the compiled and
numpy kernels are different programs, so such a comparison would not
measure a change to the code.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory) -> list:
    results = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not results:
        raise SystemExit(f"compare: no result files in {directory}")
    return results


def medians(results) -> dict:
    """(workload, trace) -> metric -> (median, unit, runs)."""
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    for res in results:
        for name, m in res["metrics"].items():
            values[(res["workload"], res["trace"])][name].append(m["value"])
            units[name] = m["unit"]
    return {
        key: {name: (statistics.median(vs), units[name], len(vs)) for name, vs in metrics.items()}
        for key, metrics in values.items()
    }


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    before, after = load(argv[0]), load(argv[1])
    backends = {res["env"]["kernel_backend"] for res in before + after}
    if len(backends) != 1:
        sys.stderr.write(f"compare: refusing to compare results from different kernel backends {sorted(backends)}\n")
        return 2
    a, b = medians(before), medians(after)
    for key in sorted(a.keys() & b.keys()):
        print(f"# {key[0]}  trace {int(key[1])}")
        for name in a[key]:
            if name not in b[key]:
                continue
            (va, unit, na), (vb, _, nb) = a[key][name], b[key][name]
            ratio = f"{vb / va:8.4f}" if va else "     n/a"
            print(f"  {name:34s} {va:14.6g} -> {vb:14.6g} {unit:7s} x{ratio}  (runs {na}/{nb})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
