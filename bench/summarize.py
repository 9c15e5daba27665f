"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/summarize.py --workload corridor --workload bulk --seeds 1-10

Runs ``run.py`` once per workload and seed, one after the other, and prints
per metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the distance between the quartiles as a share of the median.
``--out FILE`` also writes the summary and every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary: dict = {}
    status = 0
    for name in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed)],
                capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else None
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
            if result is not None:
                runs.append({"seed": seed, "exit": proc.returncode, **result})
        metrics = {}
        for key in (runs[0]["metrics"] if runs else ()):
            values = [r["metrics"][key]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[key] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median if median else 0.0,
                            "unit": runs[0]["metrics"][key]["unit"]}
            print(f"{name} {key}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {metrics[key]['spread']:.4f}")
        summary[name] = {"metrics": metrics, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
