"""The program's outputs, pinned: one sha256 per benchmark workload over
its first 25 items at seed 1.  Each item adds a line: the workload's
digest(result), or the type and message of the domain error it raised.
One more sha256 pins the search itself on the first 84 closed-webs items
at seed 1, the deepest zero-potential search of the corpora: the fields
`moycalc reduce --json` prints.  And one pins the traces of the 78
open-random items at seed 1 whose potential is nonzero, where the search
takes the first feasible candidate in (row, var, side) order.

A change that only makes the program faster or smaller keeps these.  A
change that alters outputs on purpose updates the pin, and says in
CHANGES.md which outputs changed and why.
"""

import hashlib
import json

import pytest

from moycalc.cli import DOMAIN_ERRORS
from moycalc.diagram import glue, parse_diagram
from moycalc.reduce import auto_reduce, canonical_form
from test_reduce import _load_workloads

PINNED = {
    "open-random":
        "885975be8dd6668e86cb10b055c089e6582a13a2403b293bbcfe6ff3b16ca3c1",
    "closed-webs":
        "f8af2c8fe1e6336c4c6abeb4b4e20488801e099015c09899978dfa9e258ceb2b",
    "links":
        "2dd545e1aa9a6c4356a6c63799d277cae2e0731ba98b0d69d58134b92faa0c21",
}

SEARCH_PINNED = (
    "06f5e6d6fb6788d1d2c78c64fe58c276a08ba78abed85695e774d3f911221632")

NONZERO_TRACES_PINNED = (
    "482db5e6ce0244f7903634dee9782865ce52b2e92661f0aa57da0e0ccb4a49a1")


def _outputs_digest(workload, items=25):
    workloads = _load_workloads()
    work = workloads.WORKLOADS[workload]
    digest = hashlib.sha256()
    for item in workloads.corpus(work, 1, items):
        try:
            line = work.digest(work.run(item.text))
        except DOMAIN_ERRORS as exc:
            line = "!%s: %s" % (type(exc).__name__, exc)
        digest.update(("%s\n" % line).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_outputs_match_the_pin(workload):
    assert _outputs_digest(workload) == PINNED[workload]


def _search_digest(items=84):
    """One line per item: the step count and the canonical_form rows,
    rules, shift and parity of each summand, or the domain error."""
    workloads = _load_workloads()
    digest = hashlib.sha256()
    for item in workloads.corpus(workloads.WORKLOADS["closed-webs"], 1, items):
        try:
            reduced, trace = auto_reduce(glue(parse_diagram(item.text)))
            doc = [len(trace)]
            for mf in reduced:
                cf = canonical_form(mf)
                doc.append([[str(r) for r in cf.rows],
                            ["%s%d^%d -> %s" % (v[0], v[1], d, p)
                             for v, d, p in cf.base.rules],
                            cf.shift, cf.parity])
            line = json.dumps(doc)
        except DOMAIN_ERRORS as exc:
            line = "!%s: %s" % (type(exc).__name__, exc)
        digest.update(("%s\n" % line).encode())
    return digest.hexdigest()


def test_search_matches_the_pin():
    assert _search_digest() == SEARCH_PINNED


def test_nonzero_potential_traces_match_the_pin():
    # one line per item: its trace steps as JSON
    workloads = _load_workloads()
    digest = hashlib.sha256()
    traced = 0
    for item in workloads.corpus(workloads.WORKLOADS["open-random"], 1, 82):
        mf = glue(parse_diagram(item.text))
        if mf.potential().is_zero():
            continue
        _, trace = auto_reduce(mf)
        digest.update(("%s\n" % json.dumps(trace.steps)).encode())
        traced += 1
    assert traced == 78
    assert digest.hexdigest() == NONZERO_TRACES_PINNED
