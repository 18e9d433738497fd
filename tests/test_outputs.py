"""The program's outputs, pinned: one sha256 per benchmark workload over
its first 25 items at seed 1.  Each item adds a line: the workload's
digest(result), or the type and message of the domain error it raised.

A change that only makes the program faster or smaller keeps these.  A
change that alters outputs on purpose updates the pin, and says in
CHANGES.md which outputs changed and why.
"""

import hashlib

import pytest

from moycalc.cli import DOMAIN_ERRORS
from test_reduce import _load_workloads

PINNED = {
    "open-random":
        "d2c86a00137f3acc749831ab881db8b96fe8243689c0a96a96969699b81136fb",
    "closed-webs":
        "7bca52d059ed3459e4972d19d29dfb2d380405e8182628ffdbc7a9177e6e623f",
    "links":
        "2dd545e1aa9a6c4356a6c63799d277cae2e0731ba98b0d69d58134b92faa0c21",
}


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
