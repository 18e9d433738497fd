"""Run one benchmark workload in this process and print its metrics.

  python3 perfbench/run.py --workload open-random --seed 1 --seconds 24 \
      --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One process, one thread, one item after another (closed loop).
A run times ``rate * --seconds`` items of the workload (``--items``
overrides the count); see workloads.py for the corpora.

--trace 0 times every item with nothing rebound, checks every result
against the workload's oracle and prints the end-to-end metrics.  Times
are reference seconds (see REFERENCE_S); item quantiles are Harrell-Davis
estimates.  The run pins itself and its children to the CPU it started on.

--trace 1 runs the first half of those items with the program's functions
rebound by tracing.py and prints the per-layer metrics.  It then runs the
same items untraced in a child process, which also checks them, and
reports the tracing overhead (traced minus untraced item time); the two
runs must compute identical results.  Spans and counters are written once,
at the end, to perfbench/out/.

Before the result, a run prints one human-readable line per metric and a
JSON line ``{"run": {...}}`` with the Python version, nproc, seed, item
count, source commit and failures by type.  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

A wrong result stops the run with exit status 1, naming the item; so does
an exception that is not one of the program's typed domain errors.  A typed
domain error (``moycalc.cli.DOMAIN_ERRORS``) is a failed item: it is counted
and the run goes on.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
# no item starts after this many seconds of the timed loop, so that a run
# on a much slower machine still ends within three minutes
LOOP_CAP_S = 150
CHILD_TIMEOUT_S = 170

# Reported times are reference seconds.  The machine the benchmark was
# defined on (2 vCPU, shared) switches every few seconds between a fast and
# a slow state: a fixed loop takes 1.1 or 1.85 ms on either vCPU, and raw
# figures for the same items moved by 15-23 % between runs.  So every timed
# interval is bracketed by two readings of _reference(), an interval timer
# takes one more every SAMPLE_EVERY_S inside it (their time is subtracted),
# and the interval is scaled by REFERENCE_S over the mean reading.  The
# loop is stdlib-only, a sparse product with Fraction coefficients in the
# shape of the program's hot loop, so no change to the program can make it
# faster or slower.  Raw figures are printed alongside, in the run line.
REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.1
_REF_A = {((("x", 1), i), (("y", 2), 3 - i % 3)): Fraction(i + 1, 3)
          for i in range(6)}
_REF_B = {((("x", 1), i % 4), (("z", 1), i)): Fraction(2 * i - 3, 5)
          for i in range(6)}

END_TO_END = (("setup_s", "s"), ("item_p50_s", "s"), ("item_p90_s", "s"),
              ("ok_per_s", "items/s"), ("ok_ratio", "ratio"),
              ("peak_rss_mb", "MiB"))
TRACED = (("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"))


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "moycalc" / "__init__.py").is_file():
        print("error: no program source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import moycalc
    if Path(moycalc.__file__).resolve().parent != SRC / "moycalc":
        print("error: moycalc imported from %s, not %s"
              % (moycalc.__file__, SRC), file=sys.stderr)
        return 2
    import workloads

    # one CPU for this process and its children, so that the reference
    # readings come from the CPU that ran the timed work
    os.sched_setaffinity(0, {_current_cpu()})
    workload = workloads.WORKLOADS[args.workload]
    count = args.items or max(1, round(workload.rate * args.seconds))
    if args.trace:
        return _traced(args, workload, math.ceil(count / 2))
    return _untraced(args, workload, count)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("open-random", "closed-webs", "links"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the run: rate * seconds items")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int,
                        help="time this many items instead")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.items is not None and args.items < 1):
        parser.error("--seconds and --items must be positive")
    return args


def _untraced(args, workload, count):
    import workloads

    setup = [_setup_probe(args, count) for _ in range(SETUP_PROBES)]
    items = workloads.corpus(workload, args.seed, count)
    run = _run_items(workload, items, check=True)
    if run is None:
        return 1
    ok = len(run["times"]) - run["failed"]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def timings(setup_s, times):
        return {"setup_s": statistics.median(setup_s),
                "item_p50_s": _quantile(times, 0.5),
                "item_p90_s": _quantile(times, 0.9),
                "ok_per_s": ok / sum(times)}

    values = timings([ref for _, ref in setup], run["times"])
    values.update(ok_ratio=ok / len(run["times"]), peak_rss_mb=rss)
    info = _run_info(args, workload, run)
    info["raw"] = timings([raw for raw, _ in setup], run["raw_times"])
    info["setup_samples_s"] = setup
    info["beyond_p90"] = sum(1 for t in run["times"]
                             if t > values["item_p90_s"])
    info["fail_ratio"] = run["failed"] / len(run["times"])
    for name, unit in END_TO_END:
        print("%-12s %12.6g %s" % (name, values[name], unit))
    print("%-12s %12.6g %s" % ("fail_ratio", info["fail_ratio"], "ratio"))
    print(json.dumps({"run": info}))
    _result(len(run["times"]), run["failed"],
            {name: (values[name], unit) for name, unit in END_TO_END})
    return 0


def _traced(args, workload, count):
    import tracing
    import workloads

    items = workloads.corpus(workload, args.seed, count)
    tracer = tracing.Tracer().install()
    try:
        run = _run_items(workload, items, check=False, tracer=tracer)
    finally:
        tracer.uninstall()
    if run is None:
        return 1
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0",
         "--items", str(len(run["times"]))],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    plain = None
    for line in child.stdout.splitlines():
        if line.startswith('{"run"'):
            plain = json.loads(line)["run"]
    if child.returncode or plain is None:
        print("error: untraced comparison run failed (status %d):\n%s"
              % (child.returncode, child.stderr), file=sys.stderr)
        return 1
    if plain["digest"] != run["digest"]:
        print("error: traced and untraced runs computed different results "
              "on the same %d items" % len(run["times"]), file=sys.stderr)
        return 1

    overhead = sum(run["times"]) - plain["timed_s"]
    # the tracer's clock reads raw seconds; scale them like the item times
    scale = REFERENCE_S / run["reference_s"]
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in tracer.metrics().items()}
    for (name, unit), value in zip(TRACED, (overhead,
                                           overhead / plain["timed_s"])):
        metrics[name] = (value, unit)
    info = _run_info(args, workload, run)
    info["untraced_timed_s"] = plain["timed_s"]
    out = HERE / "out" / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.write(out, {"run": info})
    info["trace_file"] = str(out.relative_to(ROOT))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print(json.dumps({"run": info}))
    _result(len(run["times"]), run["failed"], metrics)
    return 0


def _run_items(workload, items, check, tracer=None):
    """Time each item; None after a wrong result or an untyped exception."""
    inside = []
    previous = signal.signal(signal.SIGALRM,
                             lambda signum, frame: inside.append(_reference()))
    try:
        return _time_items(workload, items, check, tracer, inside)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _time_items(workload, items, check, tracer, inside):
    from moycalc.cli import DOMAIN_ERRORS
    import workloads

    run_item = workload.run
    if tracer is not None:
        run_item = tracer.wrap("item", "bench", span=True)(run_item)
    times = []
    raw_times = []
    references = []
    failures = []
    oracle = collections.Counter()
    digest = hashlib.sha256()
    clock = time.perf_counter
    loop_start = clock()
    for item in items:
        if clock() - loop_start > LOOP_CAP_S:
            print("warning: stopped after %d of %d items at the %d s cap"
                  % (len(times), len(items), LOOP_CAP_S), file=sys.stderr)
            break
        if tracer is not None:
            tracer.item = item.index
        before = _reference()
        inside.clear()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = clock()
        try:
            result, failure = run_item(item.text), None
        except DOMAIN_ERRORS as exc:
            result, failure = None, exc
        except Exception:
            print("error: item %d raised an untyped exception; its text:\n%s"
                  % (item.index, item.text), file=sys.stderr)
            raise
        finally:
            elapsed = clock() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        # a reading runs the loop twice and returns the time of one
        raw = elapsed - 2 * sum(inside)
        readings = [before, _reference()] + inside
        reference = sum(readings) / len(readings)
        raw_times.append(raw)
        references.append(reference)
        times.append(raw * REFERENCE_S / reference)
        if failure is not None:
            failures.append((item.index, type(failure).__name__))
            digest.update(b"!%s\n" % type(failure).__name__.encode())
            continue
        if check:
            try:
                oracle[workload.check(item, result)] += 1
            except workloads.Wrong as exc:
                print("error: wrong result on item %d: %s\nitem text:\n%s"
                      % (item.index, exc, item.text), file=sys.stderr)
                return None
        digest.update(("%s\n" % workload.digest(result)).encode())
    return {"times": times, "raw_times": raw_times,
            "reference_s": statistics.median(references),
            "failed": len(failures), "failures": failures,
            "oracle": dict(oracle), "digest": digest.hexdigest()}


def _current_cpu():
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rpartition(")")[2].split()[36])


def _reference():
    """Seconds the reference loop takes now: the mean of two runs."""
    start = time.perf_counter()
    for _ in range(12):
        out = {}
        for m1, c1 in _REF_A.items():
            for m2, c2 in _REF_B.items():
                exp = dict(m1)
                for v, e in m2:
                    exp[v] = exp.get(v, 0) + e
                m = tuple(sorted(exp.items()))
                out[m] = out.get(m, 0) + c1 * c2
    return (time.perf_counter() - start) / 2


def _setup_probe(args, count):
    """Seconds, raw and reference, that a fresh process takes to import
    moycalc and generate the corpus, as setup_probe.py measures them."""
    probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                            args.workload, str(args.seed), str(count)],
                           capture_output=True, text=True, check=True,
                           timeout=CHILD_TIMEOUT_S)
    raw, reference = map(float, probe.stdout.split())
    return raw, reference


def _quantile(values, p, steps=20000):
    """The Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.  Unlike
    a single order statistic, it does not jump with the one or two items
    nearest the quantile, so it varies less between runs."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf = [0.0]
    for k in range(steps):
        u = (k + 0.5) / steps
        cdf.append(cdf[-1] + math.exp(log_norm + (a - 1) * math.log(u)
                                      + (b - 1) * math.log(1 - u)))
    return sum(x[i] * (cdf[(i + 1) * steps // n] - cdf[i * steps // n])
               for i in range(n)) / cdf[-1]


def _run_info(args, workload, run):
    by_type = collections.Counter(kind for _, kind in run["failures"])
    return {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "items": len(run["times"]), "failed": run["failed"],
            "failures_by_type": dict(sorted(by_type.items())),
            "failed_items": run["failures"], "oracle": run["oracle"],
            "timed_s": sum(run["times"]), "raw_timed_s": sum(run["raw_times"]),
            "reference_s": run["reference_s"], "digest": run["digest"],
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)),
            "commit": _commit(), "source_sha256": _source_digest()}


def _result(attempted, failed, metrics):
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def _commit():
    """The checked-out git commit, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "moycalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
