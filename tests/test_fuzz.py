"""A seeded fuzz gate for the CLI's failure contract.

Texts are the benchmark corpora with one or two line-level mutations
(delete, duplicate or truncate a line, swap two parameters, set n in
2..12, append a token) and random closed webs built from every piece
kind.  Every command runs in process through ``cli.main``, 30 % of the
runs with ``--json``.  Each run must return 0 or 1 and raise nothing, and
on 1 stderr must be one line that starts with ``error: ``: every failure
is a ``DomainError`` (or an unreadable file), which the CLI reports.
"""

import contextlib
import io
import random

import pytest

from moycalc import cli
from moycalc.diagram import DOUBLE_SLOTS, ROLES
from test_reduce import _load_workloads

COMMANDS = ("build", "reduce", "euler", "homology", "bracket")
TOKENS = ("x1", "d1", "3", "glue", "arc", "#", "x", "-1", "n")


def _mutant(text, rng):
    """text with one or two line-level mutations."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(lines))
        words = lines[k].split()
        mutation = rng.randrange(6)
        if mutation == 0:
            del lines[k]
        elif mutation == 1:
            lines.insert(k, lines[k])
        elif mutation == 2:
            lines[k] = lines[k][:rng.randrange(len(lines[k]) + 1)]
        elif mutation == 3 and len(words) > 2:
            i, j = rng.sample(range(1, len(words)), 2)
            words[i], words[j] = words[j], words[i]
            lines[k] = " ".join(words)
        elif mutation == 4:
            lines = [line for line in lines if not line.startswith("n ")]
            lines.insert(0, "n %d" % rng.randint(2, 12))
        else:
            lines[k] += " " + rng.choice(TOKENS)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _random_web(rng):
    """A closed web: pieces of every kind, as many vins as vouts, and each
    output end glued to a random input end of its width."""
    pairs = rng.randint(0, 2)
    kinds = ["vin", "vout"] * pairs + rng.choices(
        ("arc", "wide", "dline", "xplus", "xminus"), k=rng.randint(1, 3))
    rng.shuffle(kinds)
    lines = ["n %d" % rng.randint(3, 6)]
    ends = {}
    count = 0
    for kind in kinds:
        params = []
        for slot, role in enumerate(ROLES[kind]):
            count += 1
            width = "d" if slot in DOUBLE_SLOTS[kind] else "x"
            params.append("%s%d" % (width, count))
            ends.setdefault((width, role), []).append(params[-1])
        lines.append("%s %s" % (kind, " ".join(params)))
    for width in "xd":
        outs = ends.get((width, "out"), [])
        ins = ends.get((width, "in"), [])
        rng.shuffle(ins)
        lines += ["glue %s %s" % pair for pair in zip(outs, ins)]
    return "\n".join(lines) + "\n"


def _texts(seed):
    rng = random.Random("fuzz/%d" % seed)
    workloads = _load_workloads()
    texts = []
    for work in workloads.WORKLOADS.values():
        for item in workloads.corpus(work, seed, 24):
            texts.append(_mutant(item.text, rng))
    texts += [_random_web(rng) for _ in range(40)]
    return rng, texts


@pytest.mark.parametrize("seed", [1, 2])
def test_every_run_exits_0_or_reports_an_error(seed, tmp_path):
    rng, texts = _texts(seed)
    path = tmp_path / "fuzz.moy"
    statuses = set()
    for text in texts:
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            argv = [command, str(path)]
            if rng.random() < 0.3:
                argv.append("--json")
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    status = cli.main(argv)
            except Exception as exc:
                pytest.fail("%s is no DomainError: %s on\n%s"
                            % (type(exc).__name__, argv, text))
            statuses.add(status)
            assert status in (0, 1), (argv, text)
            if status:
                assert err.getvalue().startswith("error: "), (argv, text)
                assert err.getvalue().count("\n") == 1, (argv, text)
            else:
                assert not err.getvalue(), (argv, text)
    # the texts reach both outcomes
    assert statuses == {0, 1}
