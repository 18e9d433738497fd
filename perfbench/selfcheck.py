"""Checks of the benchmark itself, run from a full checkout:

  python3 perfbench/selfcheck.py

1. The open-random generator copied into workloads.py yields the same
   100 texts for seed 2024 as criterion 8's ``_random_diagram`` in
   tests/test_acceptance.py, and open-random's structures are that corpus.
2. The metric names in BENCHMARK.json are exactly the ones run.py prints,
   and its workloads are the ones workloads.py defines.
3. Respelling does not change what the program computes: the first items
   of every workload give the same results spelled from two seeds as in
   their generated form.
"""

import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check_generator():
    spec = importlib.util.spec_from_file_location(
        "test_acceptance", ROOT / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    theirs = random.Random(2024)
    ours = random.Random(2024)
    expected = [acceptance._random_diagram(theirs) for _ in range(100)]
    assert [workloads.random_diagram(ours) for _ in range(100)] == expected
    structures = workloads.WORKLOADS["open-random"].structures()
    assert list(itertools.islice(structures, 100)) == expected
    return "open-random = criterion 8's 100 seed-2024 diagrams"


def check_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    per_layer = [(name, unit) for name, (_, unit)
                 in tracing.Tracer().metrics().items()] + list(run.TRACED)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    return "BENCHMARK.json names %d end-to-end and %d per-layer metrics" % (
        len(spec["end_to_end"]), len(spec["per_layer"]))


def check_spelling(count=3):
    from moycalc.cli import DOMAIN_ERRORS

    def outcome(workload, text):
        try:
            return workload.digest(workload.run(text))
        except DOMAIN_ERRORS as exc:
            return "!" + type(exc).__name__

    for workload in workloads.WORKLOADS.values():
        raw = [workload.render(s) for s in
               itertools.islice(workload.structures(), count)]
        want = [outcome(workload, text) for text in raw]
        for seed in (1, 2):
            items = workloads.corpus(workload, seed, count)
            assert [item.text for item in items] != raw
            assert [outcome(workload, item.text) for item in items] == want
    return "respelled items compute the same results (%d per workload)" % count


def main():
    for check in (check_generator, check_names, check_spelling):
        print("ok: %s" % check())
    return 0


if __name__ == "__main__":
    sys.exit(main())
