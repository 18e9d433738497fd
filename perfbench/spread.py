"""Run the benchmark over several seeds and report each metric's spread.

  python3 perfbench/spread.py --seeds 1-10 [--workloads links,...]
      [--trace 0] [--out perfbench/out/spread.json]

Each (workload, seed) is one run of run.py in its own process, one after
another.  For every end-to-end metric the report gives the median and the
quartile spread, (Q3 - Q1) / median with Q1 and Q3 from
``statistics.quantiles(values, n=4)``, next to the metric's bound in
BENCHMARK.json.  The raw results, with each run's wall time, go to --out.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="first-last, or a comma-separated list")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out" / "spread.json"))
    args = parser.parse_args(argv)
    if "-" in args.seeds:
        first, last = map(int, args.seeds.split("-"))
        seeds = list(range(first, last + 1))
    else:
        seeds = [int(s) for s in args.seeds.split(",")]

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    summary = {}
    status = 0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            cmd = spec["command"] + ["--workload", workload,
                                     "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            wall = time.perf_counter() - start
            lines = proc.stdout.splitlines()
            if proc.returncode or not lines:
                print("%s seed %d failed (status %d):\n%s"
                      % (workload, seed, proc.returncode, proc.stderr))
                status = 1
                continue
            result = json.loads(lines[-1])
            info = next(json.loads(line)["run"] for line in lines
                        if line.startswith('{"run"'))
            runs.append({"workload": workload, "seed": seed, "wall_s": wall,
                         "result": result, "run": info})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %.1f s wall, %d items, %d failed"
                  % (workload, seed, wall, result["attempted"],
                     result["failed"]), flush=True)
        for name, vals in values.items():
            print("  " + _spread_line(name, vals, bounds.get(name)))
            summary.setdefault(workload, {})[name] = _stats(vals)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                               "summary": summary, "runs": runs}, indent=1))
    return status


def _stats(vals):
    med = statistics.median(vals)
    out = {"values": vals, "median": med}
    if len(vals) >= 2 and med:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med)
    return out


def _spread_line(name, vals, bound):
    st = _stats(vals)
    if "spread" not in st:
        return "%-28s median %.6g (%d runs)" % (name, st["median"], len(vals))
    spread = st["spread"]
    line = "%-28s median %.6g  Q1 %.6g  Q3 %.6g  spread %.4f" % (
        name, st["median"], st["q1"], st["q3"], spread)
    if bound is not None:
        line += "  bound %.2f (%s)" % (
            bound, "under a third" if spread < bound / 3
            else "within" if spread <= bound else "OVER")
    return line


if __name__ == "__main__":
    sys.exit(main())
