"""The three workloads: corpora, timed paths and oracles.

Each ``Workload`` has

  rate                items per second of ``--seconds`` (see run.py);
  structures()        the endless stream of diagrams its generator draws
                      from one fixed ``random.Random`` seed;
  render(structure)   the structure as diagram text;
  variant(s, rng)     a second structure the oracle needs, or None;
  run(text)           the path a CLI user pays for, timed per item;
  check(item, result) the independent oracle, untimed; it raises ``Wrong``
                      when the program's answer is not the right one and
                      returns the name of the check it made;
  digest(result)      a string that two runs of the same code agree on.

``corpus(workload, seed, count)`` takes the first ``count`` structures and
spells each one afresh from ``--seed``: new identifier numbers, glue
statements in a new order and with their operands swapped at random.  The
program's work does not depend on the spelling (variables are assigned by
piece order, not by name), so runs with different seeds time the same
diagrams.  Per-item times span three orders of magnitude (about 2 ms to
8 s on open-random), and drawing fresh diagrams per seed moved the median
item time by 30 to 70 % between seeds at the item counts one run can
afford; fixed structures keep the figures comparable between seeds and
between commits.

Program functions are looked up through their modules at call time
(``diagram.glue``, not a name imported here), so that the traced run's
rebinding of module globals also catches the benchmark's own calls.
"""

import random

from moycalc import diagram, homology, mf, moybracket, reduce


class Wrong(AssertionError):
    """The program returned a result the oracle rejects."""


class Item:
    __slots__ = ("index", "text", "variant")

    def __init__(self, index, text, variant=None):
        self.index = index
        self.text = text
        self.variant = variant    # a second text the oracle needs, or None


def corpus(workload, seed, count):
    """The first ``count`` structures of ``workload``, spelled from ``seed``."""
    spelling = random.Random("%s/spelling" % seed)
    checks = random.Random("%s/checks" % seed)
    items = []
    for index, structure in zip(range(count), workload.structures()):
        text = respell(workload.render(structure), spelling)
        variant = workload.variant(structure, checks)
        if variant is not None:
            variant = respell(workload.render(variant), spelling)
        items.append(Item(index, text, variant))
    return items


def respell(text, rng):
    """The same diagram with new identifier numbers and reordered glues."""
    header, *lines = text.splitlines()
    names = sorted({tok for line in lines for tok in line.split()[1:]})
    numbers = rng.sample(range(1, 10 * len(names) + 10), len(names))
    new = {name: "%s%d" % (name[0], k) for name, k in zip(names, numbers)}
    pieces, glues = [], []
    for line in lines:
        head, *params = line.split()
        params = [new[p] for p in params]
        if head == "glue":
            if rng.random() < 0.5:
                params.reverse()
            glues.append(" ".join([head] + params))
        else:
            pieces.append(" ".join([head] + params))
    rng.shuffle(glues)
    return "\n".join([header] + pieces + glues) + "\n"


# -- open-random: criterion 8's generator ------------------------------------
#
# Copied from tests/test_acceptance.py (_PIECES, _ROLES, _random_diagram);
# selfcheck.py asserts that the copy yields criterion 8's seed-2024 corpus.

_PIECES = {
    "arc": ("single", "single"),
    "wide": ("single",) * 4,
    "dline": ("double", "double"),
    "vin": ("single", "single", "double"),
    "vout": ("double", "single", "single"),
}
_ROLES = {
    "arc": ("in", "out"),
    "wide": ("out", "out", "in", "in"),
    "dline": ("out", "in"),
    "vin": ("in", "in", "out"),
    "vout": ("in", "out", "out"),
}


def random_diagram(rng):
    n = rng.randint(3, 5)
    lines = ["n %d" % n]
    counters = {"single": 0, "double": 0}
    uses = {("single", "in"): [], ("single", "out"): [],
            ("double", "in"): [], ("double", "out"): []}
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(sorted(_PIECES))
        params = []
        for slot, role in zip(_PIECES[kind], _ROLES[kind]):
            counters[slot] += 1
            name = ("x%d" if slot == "single" else "d%d") % counters[slot]
            params.append(name)
            uses[(slot, role)].append(name)
        lines.append("%s %s" % (kind, " ".join(params)))
    for slot in ("single", "double"):
        outs = uses[(slot, "out")][:]
        ins = uses[(slot, "in")][:]
        rng.shuffle(outs)
        rng.shuffle(ins)
        take = rng.randint(0, min(len(outs), len(ins)))
        for p, q in list(zip(outs, ins))[:take]:
            lines.append("glue %s %s" % (p, q))
    return "\n".join(lines) + "\n"


def _open_random_structures():
    rng = random.Random(2024)
    while True:
        yield random_diagram(rng)


def _open_random_run(text):
    # the build/reduce path, with the factorization check criterion 8 runs
    d = diagram.parse_diagram(text)
    m = diagram.glue(d)
    omega = m.potential()
    explicit = m.to_explicit()
    verified = mf.verify_factorization(explicit)
    summands, _ = reduce.auto_reduce(m)
    return d, omega, verified, summands


def _open_random_check(item, result):
    d, omega, verified, summands = result
    if omega != diagram.boundary_potential(d):
        raise Wrong("potential %s is not the boundary potential" % omega)
    if verified != omega:
        raise Wrong("d1*d0 = %s, potential %s" % (verified, omega))
    for s in summands:
        if s.potential() != omega:
            raise Wrong("summand potential %s, potential %s"
                        % (s.potential(), omega))
    return "potentials"


def _open_random_digest(result):
    _, omega, verified, summands = result
    return "%s|%s|%s" % (omega, verified, summands)


# -- closed-webs and links: closures of braid-like words ----------------------
#
# A word is a list of (generator, strand i); each letter joins strands i
# and i+1 with one piece of the wide-edge shape (a, b out on top, c, d in
# at the bottom).  Every strand starts with an arc whose tail is glued to
# the strand's final head, so the diagram is closed.

def _closure_text(n, strands, word):
    lines = ["n %d" % n]
    glues = []
    names = iter(range(1, 10 ** 6))
    tails, heads = [], []
    for _ in range(strands):
        t, h = "x%d" % next(names), "x%d" % next(names)
        lines.append("arc %s %s" % (t, h))
        tails.append(t)
        heads.append(h)
    for kind, i in word:
        a, b, c, d = ("x%d" % next(names) for _ in range(4))
        lines.append("%s %s %s %s %s" % (kind, a, b, c, d))
        glues.append((heads[i], c))
        glues.append((heads[i + 1], d))
        heads[i], heads[i + 1] = a, b
    glues.extend(zip(heads, tails))
    lines.extend("glue %s %s" % g for g in glues)
    return "\n".join(lines) + "\n"


def _closed_webs_structures():
    rng = random.Random(1)
    while True:
        n = rng.randint(3, 5)
        strands = rng.randint(2, 4)
        word = [("wide", rng.randrange(strands - 1))
                for _ in range(rng.randint(1, 3))]
        yield n, strands, word


def _closed_webs_run(text):
    # the euler path of the CLI, then the bracket path on the same text
    d = diagram.parse_diagram(text)
    reduced, _ = reduce.auto_reduce(diagram.glue(d))
    chi = homology.euler_characteristic(homology.graded_homology(reduced))
    return chi, moybracket.bracket_text(text)


def _closed_webs_check(item, result):
    chi, value = result
    if chi != value:
        raise Wrong("euler characteristic %s, bracket %s" % (chi, value))
    return "euler=bracket"


def _closed_webs_digest(result):
    return "%s|%s" % result


def _links_structures():
    rng = random.Random(1)
    while True:
        n = rng.randint(3, 5)
        strands = rng.randint(2, 4)
        word = [(rng.choice(("xplus", "xminus")), rng.randrange(strands - 1))
                for _ in range(rng.randint(4, 9))]
        yield n, strands, word


# Share of links items whose bracket is recomputed with one sigma_i
# sigma_i^-1 pair inserted at a random place.  Only words of at most 7
# crossings qualify: the pair adds two, so no check expands more
# resolutions, or holds more of them in memory, than the largest timed item
# (9 crossings, 512 resolutions), and peak_rss_mb stays the program's.
RII_SHARE = 1 / 8


def _links_variant(structure, rng):
    n, strands, word = structure
    if len(word) > 7 or rng.random() >= RII_SHARE:
        return None
    at = rng.randint(0, len(word))
    i = rng.randrange(strands - 1)
    pair = [("xplus", i), ("xminus", i)]
    if rng.random() < 0.5:
        pair.reverse()
    return n, strands, word[:at] + pair + word[at:]


def _links_run(text):
    return moybracket.bracket_text(text)


def _links_check(item, result):
    if item.variant is None:
        return "unchecked"
    try:
        other = moybracket.bracket_text(item.variant)
    except moybracket.StuckGraph:
        # the rewrite rules cannot evaluate the longer word
        return "reidemeister-ii: no verdict"
    if other != result:
        raise Wrong("bracket %s changes to %s under Reidemeister II:\n%s"
                    % (result, other, item.variant))
    return "reidemeister-ii"


def _closure_of(structure):
    return _closure_text(*structure)


def _no_variant(structure, rng):
    return None


class Workload:
    """``rate`` sizes a run: ``rate * --seconds`` items took about
    ``--seconds`` reference seconds of item time at the commit that defined
    the benchmark, and faster code times the same items in less time."""

    def __init__(self, name, rate, structures, render, variant, run, check,
                 digest):
        self.name = name
        self.rate = rate
        self.structures = structures
        self.render = render
        self.variant = variant
        self.run = run
        self.check = check
        self.digest = digest


WORKLOADS = {w.name: w for w in (
    Workload("open-random", 3.4, _open_random_structures, str, _no_variant,
             _open_random_run, _open_random_check, _open_random_digest),
    Workload("closed-webs", 3.5, _closed_webs_structures, _closure_of,
             _no_variant, _closed_webs_run, _closed_webs_check,
             _closed_webs_digest),
    Workload("links", 8.0, _links_structures, _closure_of, _links_variant,
             _links_run, _links_check, str),
)}
