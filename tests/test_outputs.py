"""The program's outputs, pinned: one sha256 per benchmark workload over
its first 25 items at seed 1.  Each item adds a line: the workload's
digest(result), or the type and message of the domain error it raised.
One more sha256 pins the search itself on the first 84 closed-webs items
at seed 1, where splits occur: the fields `moycalc reduce --json` prints.

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
        "d2c86a00137f3acc749831ab881db8b96fe8243689c0a96a96969699b81136fb",
    "closed-webs":
        "7bca52d059ed3459e4972d19d29dfb2d380405e8182628ffdbc7a9177e6e623f",
    "links":
        "2dd545e1aa9a6c4356a6c63799d277cae2e0731ba98b0d69d58134b92faa0c21",
}

SEARCH_PINNED = (
    "98762706a928b63b0827674c7f319696b7a86330efe6063a2fbd24a4e44dab80")


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
