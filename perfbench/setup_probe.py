"""One benchmark set-up, run by run.py in a fresh process: import moycalc
from src/ and generate the workload's corpus.  Prints the seconds this took,
raw and in reference seconds (see run.py).

  python3 perfbench/setup_probe.py WORKLOAD SEED COUNT
"""

import sys
import time

import run


def main():
    name, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, str(run.SRC))
    before = run._reference()
    start = time.perf_counter()
    import workloads
    workloads.corpus(workloads.WORKLOADS[name], seed, count)
    raw = time.perf_counter() - start
    print(raw, raw * 2 * run.REFERENCE_S / (before + run._reference()))


if __name__ == "__main__":
    main()
