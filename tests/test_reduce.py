"""Exclusion-based simplification: invariants, traces, canonical forms."""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from moycalc.diagram import glue, parse_diagram
from moycalc.homology import euler_characteristic, graded_homology
from moycalc.mf import KoszulMF, KoszulRow, MFSum, ZeroScalar, koszul_new
from moycalc.poly import (UNIT, Poly, mono_exponent, mono_mul, mono_power,
                          mono_variables, monomials_of_degree, qdiv)
from moycalc import quotient
from moycalc.quotient import (QuotientRing, TriangularityViolation,
                              cyclic_closure)
from moycalc import reduce as reduce_module
from moycalc.symm import jacobi_algebra
from moycalc.reduce import (NotMonicInVariable, ReductionTrace,
                            ResidualVariable, VariableInPotential, _normalize_rows, _relabel,
                            auto_reduce, canonical_form, exclude_variable,
                            replay, scale_row, split_free_module)
from test_acceptance import _random_diagram
from test_moybracket import SQUARE_WEB, _spellings

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

CIRCLE = "n %d\narc x1 x2\nglue x1 x2\n"
DCIRCLE = "n %d\ndline d1 d2\nglue d1 d2\n"
THETA = ("n %d\nvin x1 x2 d1\nvout d2 x3 x4\nglue d1 d2\n"
         "glue x3 x1\nglue x4 x2\n")

# criterion 8's seed-2024 item 31: nonzero potential, nested splits
ITEM31 = ("n 3\narc x1 x2\nvout d1 x3 x4\nwide x5 x6 x7 x8\n"
          "vout d2 x9 x10\narc x11 x12\nglue x2 x1\nglue x6 x7\n"
          "glue x10 x8\nglue x5 x11\n")
# a closed web (zero potential) whose reduction split inside a split while
# the search took its candidates in (row, var, side) order; sparsest entry
# first, it reduces to zero rows without a split
NESTED = ("n 3\narc x1 x2\narc x3 x4\narc x5 x6\narc x7 x8\n"
          "wide x9 x10 x11 x12\nwide x13 x14 x15 x16\nwide x17 x18 x19 x20\n"
          "glue x6 x11\nglue x8 x12\nglue x2 x15\nglue x4 x16\n"
          "glue x14 x19\nglue x9 x20\nglue x13 x1\nglue x17 x3\n"
          "glue x18 x5\nglue x10 x7\n")
# open-random's item 20 at seed 1: nonzero potential, a split inside a split
ITEM20 = ("n 4\nvout d80 x129 x16\nvout d73 x117 x104\nwide x94 x27 x3 x90\n"
          "vin x135 x28 d2\nglue x28 x94\nglue x117 x90\nglue x27 x3\n"
          "glue x135 x104\n")

# criterion 8's seed-2024 item 85: its reduction has non-integral entries
ITEM85 = "n 3\nwide x1 x2 x3 x4\nglue x1 x4\n"

X1, X2, Y1, Y2, Z1 = ("x", 1), ("x", 2), ("y", 1), ("y", 2), ("z", 1)


def v(var, e=1):
    return Poly.var(var, e)


def _circle_mf(n):
    return glue(parse_diagram(CIRCLE % n))


def test_scale_row_preserves_potential_and_class():
    m = koszul_new(v(X1, 3), v(X1) * 2)
    s = scale_row(m, 0, 3)
    assert s.potential() == m.potential()
    assert canonical_form(s) == canonical_form(m)


def test_normalize_rows_scales_a_zero_b_row_by_its_leading_coefficient():
    a = 3 * v(X1, 2) + 6 * v(X1) * v(X2) + v(X2, 2)
    row = _normalize_rows(KoszulMF([KoszulRow(a, Poly(), 4, 2)])).rows[0]
    assert row.a == v(X1, 2) + 2 * v(X1) * v(X2) + Fraction(1, 3) * v(X2, 2)
    assert row.b.is_zero()
    assert [type(c) for _, c in row.a.sort_key()] == [int, int, Fraction]


def test_exclude_refuses_potential_variable():
    m = koszul_new(v(X1, 3), v(X1))
    with pytest.raises(VariableInPotential):
        exclude_variable(m, 0, X1, "b")


def test_exclude_refuses_potential_variable_on_the_a_side():
    # the a-entry x1^3 is monic in x1, but x1 occurs in the potential x1^4
    m = koszul_new(v(X1, 3), v(X1))
    with pytest.raises(VariableInPotential):
        exclude_variable(m, 0, X1, "a")


def test_exclude_refuses_non_monic_entry():
    m = koszul_new(v(X1) * v(X2), v(X1) * v(X2))
    with pytest.raises(NotMonicInVariable):
        exclude_variable(m, 0, X2, "b")


def _two_linear_rows():
    return (koszul_new(v(X1), v(Z1) - v(X1, 2))
            @ koszul_new(v(X1), v(X1, 2) - v(Z1)))


def test_exclude_linear_substitutes_without_rule():
    # zero potential; excluding z1 substitutes z1 -> x1^2 into the other row
    out = exclude_variable(_two_linear_rows(), 0, Z1, "b")
    assert len(out.rows) == 1
    assert out.base.rules == ()
    assert out.rows[0].a == v(X1)
    assert out.rows[0].b.is_zero()


def test_exclude_rejects_a_negative_row_index():
    m = _two_linear_rows()
    assert len(exclude_variable(m, 1, Z1, "b").rows) == 1
    with pytest.raises(ValueError, match="row -1 out of range for 2 rows"):
        exclude_variable(m, -1, Z1, "b")


def test_exclude_rejects_a_row_index_past_the_last_row():
    with pytest.raises(ValueError, match="row 2 out of range for 2 rows"):
        exclude_variable(_two_linear_rows(), 2, Z1, "b")


def test_replay_of_a_foreign_trace_names_the_missing_row():
    # a step recorded on a two-row factorization, replayed on one row
    step = ("exclude", {"row": 1, "var": Z1, "side": "b", "power": 1})
    m = koszul_new(v(X1), v(X1, 2) - v(Z1))
    with pytest.raises(ValueError, match="row 1 out of range for 1 rows"):
        replay(m, ReductionTrace([step]))


@pytest.mark.parametrize("side", ["c", "B", ""])
def test_exclude_rejects_an_unknown_side(side):
    with pytest.raises(ValueError, match="side must be") as caught:
        exclude_variable(_two_linear_rows(), 0, Z1, side)
    assert caught.type is ValueError


def test_auto_reduce_circle_and_trace_replay():
    for n in (3, 4):
        mf = _circle_mf(n)
        reduced, trace = auto_reduce(mf)
        assert len(reduced) == 1
        only = reduced.summands[0]
        assert only.rows == ()
        assert only.shift == 1 - n and only.parity == 1
        assert len(trace) > 0
        assert replay(mf, trace) == reduced


@pytest.mark.parametrize("text", [ITEM31, ITEM20], ids=["item31", "nested"])
def test_replay_follows_splits(text):
    mf = glue(parse_diagram(text))
    reduced, trace = auto_reduce(mf)
    assert any(kind == "split" for kind, _ in trace.steps)
    replayed = replay(mf, trace)
    assert ([canonical_form(s) for s in replayed]
            == [canonical_form(s) for s in reduced])


def _load_workloads():
    # the benchmark's corpora, read and not changed
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_reproduces_auto_reduce_exactly():
    # replay re-runs every copy of a split, so it also checks the copies
    # that the search shared; closed webs whose homology fails are kept
    rng = random.Random(2024)   # criterion 8's corpus, first 40 diagrams
    workloads = _load_workloads()
    closed = workloads.corpus(workloads.WORKLOADS["closed-webs"], 1, 84)
    texts = [_random_diagram(rng) for _ in range(40)] + [NESTED]
    texts += [item.text for item in closed]
    for item in closed[:40]:
        header, (_, (pieces, glues), _) = _spellings(item.text)
        texts.append("\n".join([header] + pieces + glues) + "\n")
    for text in texts:
        mf = glue(parse_diagram(text))
        reduced, trace = auto_reduce(mf)
        assert replay(mf, trace) == reduced, text


def _walked_states(workload, items, per_item):
    """(state, potential variables) that exclusions and splits reach from
    the first items of a benchmark workload at seed 1, depth first."""
    workloads = _load_workloads()
    for item in workloads.corpus(workloads.WORKLOADS[workload], 1, items):
        states = [glue(parse_diagram(item.text))]
        potential_vars = states[0].potential().variables()
        for _ in range(per_item):
            if not states:
                break
            mf = states.pop()
            yield mf, potential_vars
            for i, var, side, _ in reduce_module._exclusion_candidates(
                    mf, potential_vars):
                try:
                    states.append(exclude_variable(mf, i, var, side,
                                                   potential_vars))
                except TriangularityViolation:
                    pass
            for var in reduce_module._splittable_variables(mf):
                states.extend(split_free_module(mf, var))


def _refused(step):
    try:
        step()
    except TriangularityViolation:
        return True
    return False


@pytest.mark.parametrize("workload,items,per_item",
                         [("closed-webs", 12, 12), ("open-random", 20, 8)])
def test_early_refusal_is_exactly_with_rules_refusal(workload, items,
                                                     per_item):
    # every power candidate: the check on the rules alone refuses it
    # exactly when with_rule, after its normal form and acyclicity
    # check, refuses the rule
    checked = refused = 0
    for mf, potential_vars in _walked_states(workload, items, per_item):
        rules = mf.base.rules
        for i, var, side, d in reduce_module._exclusion_candidates(
                mf, potential_vars):
            if d < 2:
                continue
            entry = mf.rows[i].b if side == "b" else mf.rows[i].a
            _, c = entry.monic_variables()[var]
            repl = Poly.var(var, d) - entry * qdiv(1, c)
            early = _refused(lambda: cyclic_closure(rules, var,
                                                    entry.variables()))
            assert early == _refused(lambda: mf.base.with_rule(var, d, repl))
            checked += 1
            refused += early
    assert 0 < refused < checked


def _check_every_leader(rules):
    """The acyclicity check on every leader's closure, not only on the new
    last rule's: the reference that with_rule's check of its new leader
    must match."""
    by_leader = {v: (v, d, p) for v, d, p in rules}
    checked = set()
    for v, _, p in rules:
        reach = frozenset(quotient._reach(p.variables() - {v}, rules))
        if v not in reach or reach in checked:
            continue
        unbounded = sorted(reach - by_leader.keys())
        if unbounded:
            raise TriangularityViolation(
                "cyclic rules through unbounded variable %s%d" % unbounded[0])
        checked.add(reach)
        quotient._verify_staircase([by_leader[w] for w in sorted(reach)])


def _rules_or_refusal(step):
    try:
        return step().rules
    except TriangularityViolation as exc:
        return str(exc)


def _ring_steps():
    """Zero-argument ring operations: every with_rule or substitute that an
    exclusion candidate of a walked state makes, merges of consecutive
    walked bases, the Jacobi algebras and hand-built cycles."""
    first = QuotientRing().with_rule(Y1, 3, 2 * v(Y1) * v(Z1))
    cycle = first.with_rule(Z1, 2, v(Y1, 2) * v(Z1))
    # each closes a cycle through the earlier leader y1: by a rule
    # (accepted), by substitution (refused for its staircase at b = 1/2)
    # and through the unbounded x1 (refused)
    yield lambda: first.with_rule(Z1, 2, v(Y1, 2) * v(Z1))
    for b in (Fraction(1, 2), 1):
        acyclic = (QuotientRing().with_rule(Y1, 2, 2 * v(Y1) * v(X1))
                   .with_rule(Y2, 2, b * v(Y1) * v(Y2)))
        yield lambda acyclic=acyclic: acyclic.substitute(X1, v(Y2))
    yield lambda: (QuotientRing().with_rule(Y1, 2, v(Y2) * (v(X1) + v(X2)))
                   .with_rule(Y2, 2, v(Y1) * v(X2)))
    # a rule that reaches an accepted cycle, and two cycles merged
    yield lambda: cycle.with_rule(Y2, 2, v(Y1, 2))
    for n in range(3, 7):
        yield lambda n=n: jacobi_algebra(n)
        yield lambda n=n: (jacobi_algebra(n, ("y", 3), ("z", 3))
                           .merge(cycle))
    for workload, items, per_item in (("closed-webs", 12, 12),
                                      ("open-random", 20, 8)):
        previous = QuotientRing()
        for mf, potential_vars in _walked_states(workload, items, per_item):
            base = mf.base
            yield lambda base=base, previous=previous: base.merge(previous)
            previous = base
            for i, var, side, d in reduce_module._exclusion_candidates(
                    mf, potential_vars):
                entry = mf.rows[i].b if side == "b" else mf.rows[i].a
                _, c = entry.monic_variables()[var]
                repl = Poly.var(var, d) - entry * qdiv(1, c)
                if d == 1:
                    yield lambda base=base, var=var, repl=repl: (
                        base.substitute(var, repl))
                else:
                    yield lambda base=base, var=var, d=d, repl=repl: (
                        base.with_rule(var, d, repl))


def test_new_leader_check_equals_the_check_on_every_leader(monkeypatch):
    # with_rule looks only at its new leader's closure: every ring it,
    # substitute and merge make, or the refusal they raise, is the one
    # that checking every leader's closure gives
    steps = list(_ring_steps())
    got = [_rules_or_refusal(step) for step in steps]
    monkeypatch.setattr(quotient, "_check_acyclic", _check_every_leader)
    assert got == [_rules_or_refusal(step) for step in steps]
    refusals = [out for out in got if isinstance(out, str)]
    assert any("staircase" in out for out in refusals)
    assert any("unbounded" in out for out in refusals)
    assert len(refusals) < len(got)


def _exclude_reference(mf, i, var, side):
    """exclude_variable that rewrites every other row: substitute (d = 1)
    and normal form over the new base, with no row kept as it is."""
    row = mf.rows[i]
    entry = row.b if side == "b" else row.a
    d, c = entry.monic_variables()[var]
    repl = Poly.var(var, d) - entry * qdiv(1, c)
    if d == 1:
        base = mf.base.substitute(var, repl)

        def rewrite(p):
            return base.normal_form(p.substitute({var: repl}))
    else:
        base = mf.base.with_rule(var, d, repl)
        rewrite = base.normal_form
    rows = [KoszulRow(rewrite(r.a), rewrite(r.b), r.deg_a, r.deg_b)
            for k, r in enumerate(mf.rows) if k != i]
    if side == "a":
        return KoszulMF(rows, base, mf.shift + row.internal_shift,
                        mf.parity + 1)
    return KoszulMF(rows, base, mf.shift, mf.parity)


@pytest.mark.parametrize("workload,items,per_item",
                         [("closed-webs", 12, 12), ("open-random", 20, 8)])
def test_kept_rows_are_exact(workload, items, per_item):
    # an entry of v-degree < d is kept as the same object, and so is a
    # row of two such entries; every exclusion equals rewriting all rows
    kept = rewritten = 0
    for mf, potential_vars in _walked_states(workload, items, per_item):
        for i, var, side, d in reduce_module._exclusion_candidates(
                mf, potential_vars):
            try:
                got = exclude_variable(mf, i, var, side, potential_vars)
            except TriangularityViolation:
                continue
            assert got == _exclude_reference(mf, i, var, side)
            others = [r for k, r in enumerate(mf.rows) if k != i]
            for old, new in zip(others, got.rows, strict=True):
                low = [p.degree_in(var) < d for p in (old.a, old.b)]
                assert low[0] <= (new.a is old.a)
                assert low[1] <= (new.b is old.b)
                if all(low):
                    assert new is old
                    kept += 1
                else:
                    rewritten += 1
    assert kept and rewritten


def test_exact_division_is_the_old_division():
    # Poly.divided equals multiplying by qdiv(1, c), and keeps every
    # integral quotient an int; an exclusion whose lead coefficient does
    # not divide every coefficient still makes the Fraction
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    variables = [X1, X2, Y1, Z1]
    coeffs = st.one_of(st.integers(-12, 12),
                       st.fractions(min_value=-12, max_value=12,
                                    max_denominator=6))
    scalars = coeffs.filter(bool)
    polys = st.integers(0, 4).flatmap(
        lambda degree: st.dictionaries(
            st.sampled_from(monomials_of_degree(variables, 2 * degree)),
            coeffs, max_size=5)).map(Poly)

    @hypothesis.seed(2024)
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(polys, scalars)
    def check(p, c):
        got = p.divided(c)
        assert got == p * qdiv(1, c)
        for mono, coeff in got.terms.items():
            want = Fraction(p.terms[mono]) / Fraction(c)
            assert type(coeff) is (int if want.denominator == 1 else Fraction)

    check()
    # b = 2*x1^2 + 4*x1*x2 + 3*x2^2: 2 divides 4 but not 3
    b = 2 * v(X1, 2) + 4 * v(X1) * v(X2) + 3 * v(X2, 2)
    mf = KoszulMF([KoszulRow(Poly(), b, 0, 4),
                   KoszulRow(Poly(), v(X1, 2) * v(Y1), 0, 6)])
    got = exclude_variable(mf, 0, X1, "b")
    (_, _, repl), = got.base.rules
    assert repl == -2 * v(X1) * v(X2) - Fraction(3, 2) * v(X2, 2)
    assert [type(c) for _, c in repl.sort_key()] == [int, Fraction]
    assert got.rows[0].b == repl * v(Y1)


def _assert_normal_without_scan(mf):
    """mf is what the scanning constructor makes of its fields, with the
    same row objects."""
    want = KoszulMF(mf.rows, mf.base, mf.shift, mf.parity)
    assert mf == want
    assert all(got is row for got, row in zip(mf.rows, want.rows,
                                              strict=True))


def test_unscanned_factorizations_hold_normal_rows(monkeypatch):
    # every factorization that auto_reduce builds without the normal-form
    # scan has rows normal over its base
    made = []
    from_normal = KoszulMF._from_normal

    def recording(cls, *fields):
        out = from_normal(*fields)
        made.append(out)
        return out

    monkeypatch.setattr(KoszulMF, "_from_normal", classmethod(recording))
    workloads = _load_workloads()
    for name in ("closed-webs", "open-random"):
        for item in workloads.corpus(workloads.WORKLOADS[name], 1, 24):
            auto_reduce(glue(parse_diagram(item.text)))
    assert any(mf.base.rules for mf in made)
    for mf in made:
        _assert_normal_without_scan(mf)
    # one row that the base reduces fails the check
    base = QuotientRing().with_rule(X1, 2, v(X2, 2))
    rows = [KoszulRow(Poly(), v(X1) - v(X2), 0, 2),
            KoszulRow(Poly(), v(X1, 2) * v(Y1), 0, 6)]
    _assert_normal_without_scan(KoszulMF._from_normal(rows[:1], base, 0, 0))
    with pytest.raises(AssertionError):
        _assert_normal_without_scan(KoszulMF._from_normal(rows, base, 0, 0))


def test_exclusions_repeat_refusals_and_rings():
    # substituting x1 -> y1 would turn y1^2 -> x1*y1 into y1^2 -> y1^2;
    # x2^2 -> x2*y2 is a rule the base takes
    base = QuotientRing().with_rule(Y1, 2, v(X1) * v(Y1))
    mf = KoszulMF([KoszulRow(Poly(), v(X1) - v(Y1), 0, 2),
                   KoszulRow(Poly(), v(X2, 2) - v(X2) * v(Y2), 0, 4)], base)
    for _ in range(2):
        with pytest.raises(TriangularityViolation, match="its own leader"):
            exclude_variable(mf, 0, X1, "b")
    made = [exclude_variable(mf, 1, X2, "b") for _ in range(2)]
    assert made[0] == made[1] == exclude_variable(mf, 1, X2, "b")


def test_nonzero_potential_search_does_not_backtrack(monkeypatch):
    # no summand of a nonzero potential loses all its rows, so every
    # exclusion the search makes is one the trace keeps
    made = []

    def counting(*args, **kwargs):
        made.append(exclude_variable(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(reduce_module, "exclude_variable", counting)
    _, trace = auto_reduce(glue(parse_diagram(ITEM31)))
    assert len(made) == sum(kind == "exclude" for kind, _ in trace.steps)
    assert len(made) == 4


def test_rule_free_search_reuses_the_cached_potential(monkeypatch):
    # glue carries the potential by linearity, so no potential is
    # multiplied out from rows, and auto_reduce reads the glued object's
    # potential
    computed, read = [], []
    potential = KoszulMF.potential

    def counting(self):
        (computed if self._potential is None else read).append(self)
        return potential(self)

    monkeypatch.setattr(KoszulMF, "potential", counting)
    m = glue(parse_diagram(ITEM31))
    assert not m.base.rules
    omega = m.potential()
    assert not omega.is_zero()
    assert computed == []
    read.clear()
    auto_reduce(m)
    assert any(s is m for s in read)
    assert m.potential() is omega
    assert [s for s in computed if s == m] == []


def test_reduction_keeps_the_potential_of_a_unit_row():
    m = koszul_new(Poly.const(1), v(X1), deg_a=0, deg_b=2)
    reduced, _ = auto_reduce(m)
    assert [s.potential() for s in reduced] == [v(X1)]


def _eager_candidates(mf, potential_vars):
    """reduce._exclusion_candidates as it was before it was a generator:
    every candidate built, then every power checked against the rules."""
    leaders = {w for w, _, _ in mf.base.rules}
    out = []
    for i, row in enumerate(mf.rows):
        monic_b, monic_a = row.b.monic_variables(), row.a.monic_variables()
        for var in sorted(monic_b.keys() | monic_a.keys()):
            if var in potential_vars or var in leaders:
                continue
            for side, monic in (("b", monic_b), ("a", monic_a)):
                if var in monic:
                    out.append((i, var, side, monic[var][0]))
    return [c for c in out
            if c[3] < 2 or not mf.base.rules_reducible_by(c[1], c[3])]


def test_lazy_candidates_equal_the_eager_list(monkeypatch):
    # on every state auto_reduce visits, the generated candidates are the
    # eager list in its order; the search reads them one at a time
    search = reduce_module._reduce
    visited = []

    def recording_search(mf, potential_vars, *args):
        visited.append((mf, potential_vars))
        return search(mf, potential_vars, *args)

    monkeypatch.setattr(reduce_module, "_reduce", recording_search)
    workloads = _load_workloads()
    for name in ("closed-webs", "open-random"):
        for item in workloads.corpus(workloads.WORKLOADS[name], 1, 20):
            auto_reduce(glue(parse_diagram(item.text)))
    assert len(visited) > 100
    with_candidates = 0
    for mf, potential_vars in visited:
        lazy = reduce_module._exclusion_candidates(mf, potential_vars)
        assert iter(lazy) is lazy    # a generator, not a list
        eager = _eager_candidates(mf, potential_vars)
        assert list(lazy) == eager
        with_candidates += bool(eager)
    assert with_candidates > 100


def _ruled_summands():
    """The reduced summands that keep rows over a ruled base, from the 82
    open-random items at seed 1: 36 summands of 28 items."""
    workloads = _load_workloads()
    out = []
    for item in workloads.corpus(workloads.WORKLOADS["open-random"], 1, 82):
        out += [s for s in auto_reduce(glue(parse_diagram(item.text)))[0]
                if s.rows and s.base.rules]
    assert len(out) == 36
    return out


def test_rule_leaders_are_no_exclusion_candidates():
    # the base takes no second rule on a leader and cannot substitute it
    for summand in _ruled_summands():
        leaders = {w for w, _, _ in summand.base.rules}
        assert leaders and summand.rows
        candidates = reduce_module._exclusion_candidates(
            summand, summand.potential().variables())
        assert not any(var in leaders for _, var, _, _ in candidates)


def test_replay_keeps_an_already_normal_summand():
    # a reduced summand's rows are normal over its ruled base, so replaying
    # no steps gives the summand itself, with its cached potential
    for summand in _ruled_summands():
        assert summand.base.rules and summand.rows
        potential = summand.potential()
        replayed, = replay(summand, ReductionTrace())
        assert replayed is summand
        assert replayed.potential() is potential


@pytest.mark.parametrize("n", [3, 4])
def test_left_out_candidates_are_refused_by_with_rule(n):
    # walk the states the search can reach; every monic (row, var, side)
    # past rule leaders and potential variables is either a candidate or
    # an exclusion that raises
    states = [glue(parse_diagram(SQUARE_WEB % n))]
    visited = left_out = 0
    while states and visited < 40:
        mf = states.pop()
        visited += 1
        potential_vars = mf.potential().variables()
        leaders = {w for w, _, _ in mf.base.rules}
        kept = {c[:3] for c in reduce_module._exclusion_candidates(
            mf, potential_vars)}
        for i, row in enumerate(mf.rows):
            for var in row.a.variables() | row.b.variables():
                if var in potential_vars or var in leaders:
                    continue
                for side, entry in (("b", row.b), ("a", row.a)):
                    if var not in entry.monic_variables():
                        continue
                    if (i, var, side) not in kept:
                        left_out += 1
                        with pytest.raises(TriangularityViolation):
                            exclude_variable(mf, i, var, side, potential_vars)
                        continue
                    try:
                        states.append(exclude_variable(mf, i, var, side,
                                                       potential_vars))
                    except TriangularityViolation:
                        pass
    assert left_out > 0


def _monic_reference(p, var):
    # the definition spelled out: c*var^d + lower in var, c a constant
    d = p.degree_in(var)
    if d == 0:
        return None
    # the coefficient of var^d, collected over the other variables
    lead = Poly({_without(mono, var): c for mono, c in p.terms.items()
                 if mono_exponent(mono, var) == d})
    return (d, lead.terms[UNIT]) if list(lead.terms) == [UNIT] else None


def _without(mono, var):
    # mono with var's power struck out, rebuilt from its other variables
    return _packed((w, mono_exponent(mono, w))
                   for w in mono_variables(mono) if w != var)


def _packed(exponents):
    out = UNIT
    for var, e in exponents:
        out = mono_mul(out, mono_power(var, e))
    return out


def test_monic_table_matches_degree_and_coefficient():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    variables = (X1, X2, ("y", 1), Z1)
    coeffs = st.one_of(st.integers(-4, 4),
                       st.fractions(min_value=-4, max_value=4,
                                    max_denominator=3))
    monos = st.tuples(*[st.integers(0, 3)] * len(variables)).map(
        lambda es: _packed(zip(variables, es)))
    polys = st.dictionaries(monos, coeffs, max_size=5).map(Poly)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(polys)
    # x1's top power only in a mixed monomial
    @hypothesis.example(v(X1, 2) * v(X2) + v(X1) + v(Z1))
    # x1^2 shares its x1-degree with a mixed term
    @hypothesis.example(3 * v(X1, 2) + v(X1, 2) * v(X2) - v(X2, 2))
    # monic in x1 and x2 at once, over mixed terms of lower degree in each
    @hypothesis.example(v(X1, 3) - 2 * v(X2, 3) + v(X1, 2) * v(X2, 2))
    def check(p):
        table = p.monic_variables()
        assert table.keys() <= p.variables()
        for var in variables:
            want = _monic_reference(p, var)
            assert table.get(var) == want

    check()


def _is_normal(mf):
    nf = mf.base.normal_form
    return all(nf(p) == p for row in mf.rows for p in (row.a, row.b))


@pytest.mark.parametrize("text", [SQUARE_WEB % 3, SQUARE_WEB % 4, NESTED],
                         ids=["square-n3", "square-n4", "nested"])
def test_side_a_exclusion_matches_the_flipped_row(text):
    # walk the states exclusions and splits reach from the input; side "a"
    # must equal side "b" on the row flipped by the translation functor,
    # and every state handed on keeps its rows in normal form
    states = [glue(parse_diagram(text))]
    visited = compared = splits = 0
    while states and visited < 40:
        mf = states.pop()
        visited += 1
        potential_vars = mf.potential().variables()
        for i, row in enumerate(mf.rows):
            for var in sorted(row.a.variables() | row.b.variables()):
                if (var not in row.a.monic_variables()
                        and var not in row.b.monic_variables()):
                    continue
                results = []
                for m, side in ((mf, "a"), (mf.flip_row(i), "b"), (mf, "b")):
                    try:
                        results.append(exclude_variable(m, i, var, side,
                                                        potential_vars))
                    except ValueError as exc:
                        results.append(type(exc))
                assert results[0] == results[1]
                compared += 1
                made = [r for r in (results[0], results[2])
                        if isinstance(r, KoszulMF)]
                assert all(map(_is_normal, made))
                states += made
        for var in reduce_module._splittable_variables(mf):
            copies = list(split_free_module(mf, var))
            assert all(map(_is_normal, copies))
            splits += 1
            states.extend(copies)
    assert compared > 0 and splits > 0


def test_split_free_module():
    base = auto_reduce(_circle_mf(3))[0].summands[0].base
    (var, power, _), = base.rules
    m = KoszulMF((), base)
    parts = split_free_module(m, var)
    assert len(parts) == power
    assert [p.shift for p in parts] == [2 * k for k in range(power)]


def test_canonical_form_is_idempotent_and_name_blind():
    m = koszul_new(v(X2, 3), v(X2) * 2)
    n = koszul_new(v(X1, 3), v(X1) * 2)
    cm, cn = canonical_form(m), canonical_form(n)
    assert cm == cn
    assert canonical_form(cm) == cm


def test_canonical_form_of_a_relabeled_canonical_form():
    # relabeling alternates between two namings on this object's summands
    text = ("n 3\ndline d1 d2\nvin x1 x2 d3\ndline d4 d5\narc x3 x4\n"
            "glue d1 d2\n")
    for summand in auto_reduce(glue(parse_diagram(text)))[0]:
        c = canonical_form(summand)
        assert canonical_form(_relabel(c)) == c


def test_reduction_order_does_not_change_homology(monkeypatch):
    # the search tries the candidates in a seeded random order instead
    candidates = reduce_module._exclusion_candidates
    for text in (CIRCLE % 4, DCIRCLE % 4, THETA % 3):
        mf = glue(parse_diagram(text))
        baseline = graded_homology(auto_reduce(mf)[0])
        for seed in range(5):
            order = random.Random(seed)

            def shuffled(*args):
                out = list(candidates(*args))
                order.shuffle(out)
                return out

            with monkeypatch.context() as patch:
                patch.setattr(reduce_module, "_exclusion_candidates", shuffled)
                reduced, _ = auto_reduce(mf)
            assert graded_homology(reduced) == baseline


def _unshared_reduce(mf, potential_vars, zero, budget):
    """reduce._reduce as it was before split copies were shared: every
    copy of a split is searched in turn.  Under a zero potential the
    candidates go fewest terms of the excluded entry first, then lowest
    power, ties in the order given."""
    best = None
    candidates = list(reduce_module._exclusion_candidates(mf, potential_vars))
    if zero:
        def terms(c):
            row = mf.rows[c[0]]
            return len((row.b if c[2] == "b" else row.a).terms)
        candidates.sort(key=lambda c: (terms(c), c[3]))
    for (i, var, side, d) in candidates:
        if budget["branches"] <= 0 and best is not None:
            break
        try:
            nxt = exclude_variable(mf, i, var, side, potential_vars)
        except TriangularityViolation:
            continue
        if zero:
            budget["branches"] -= 1
        summands, sub = _unshared_reduce(nxt, potential_vars, zero, budget)
        step = ("exclude", {"row": i, "var": var, "side": side, "power": d})
        branch = summands, [step] + sub
        if not zero or all(not s.rows for s in summands):
            return branch
        best = best or branch
    if best is not None:
        return best
    for var in reduce_module._splittable_variables(mf):
        out, steps, sizes = [], [], []
        for copy in split_free_module(mf, var):
            summands, sub = _unshared_reduce(copy, potential_vars, zero,
                                             budget)
            out.extend(summands)
            steps.extend(sub)
            sizes.append(len(sub))
        d, _ = mf.base.rule_for(var)
        split = ("split", {"var": var, "power": d, "sizes": tuple(sizes)})
        return out, [split] + steps
    return [mf], []


def test_shared_copies_equal_the_unshared_search(monkeypatch):
    # candidates in an order seeded by the state, so that both searches
    # see the same order wherever they meet the same state; a shared rng
    # would drift, since the shared search asks for fewer candidate lists
    # (the rows and rules enter by their degrees and term counts, which
    # are much cheaper to spell than their polynomials)
    candidates = reduce_module._exclusion_candidates

    def shuffled(mf, potential_vars):
        out = list(candidates(mf, potential_vars))
        state = ([(r.deg_a, r.deg_b, len(r.a.terms), len(r.b.terms))
                  for r in mf.rows],
                 [(w, d, len(p.terms)) for w, d, p in mf.base.rules])
        random.Random(repr((out, state, seed))).shuffle(out)
        return out

    # the copy that each split builds, and those the search reduced
    first_copy, search = reduce_module._first_copy, reduce_module._reduce
    built, reduced = {}, set()
    splits = 0

    def recording_copy(mf, var):
        out = first_copy(mf, var)
        built[id(out)] = out
        return out

    def recording_search(mf, *args):
        if id(mf) in built:
            reduced.add(id(mf))
        return search(mf, *args)

    def all_copies(mf, var):
        raise AssertionError("the search built every copy of a split")

    monkeypatch.setattr(reduce_module, "_exclusion_candidates", shuffled)
    workloads = _load_workloads()
    for item in workloads.corpus(workloads.WORKLOADS["closed-webs"], 1, 84):
        mf = glue(parse_diagram(item.text))
        potential = mf.potential()
        args = mf, potential.variables(), potential.is_zero()
        for seed, branches in itertools.product(range(4), (2, 6, 16)):
            expected = _unshared_reduce(*args, {"branches": branches})
            with monkeypatch.context() as patch:
                patch.setattr(reduce_module, "split_free_module",
                              all_copies)
                patch.setattr(reduce_module, "_first_copy", recording_copy)
                patch.setattr(reduce_module, "_reduce", recording_search)
                got = reduce_module._reduce(*args, {"branches": branches})
            assert got == expected, item.text
        # each split builds copy 0 alone, and the search reduces it
        assert reduced == built.keys(), item.text
        splits += len(built)
        built.clear()
        reduced.clear()
    assert splits


def test_theta_matches_digon_times_double_circle():
    from moycalc.laurent import quantum_integer
    mf = glue(parse_diagram(THETA % 3))
    reduced, _ = auto_reduce(mf)
    chi = euler_characteristic(graded_homology(reduced))
    double = euler_characteristic(graded_homology(auto_reduce(
        glue(parse_diagram(DCIRCLE % 3)))[0]))
    assert chi == double * quantum_integer(2)


def test_auto_reduce_returns_mfsum():
    out, _ = auto_reduce(koszul_new(v(X1, 2), v(X1)))
    assert isinstance(out, MFSum)
    assert len(out) == 1
    assert out.summands[0].rows  # nothing excludable: x1 is in the potential


def _obeys_policy(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


@pytest.mark.parametrize("text", [SQUARE_WEB % 3, SQUARE_WEB % 4, ITEM85],
                         ids=["square-n3", "square-n4", "item85"])
def test_reduced_coefficients_obey_the_policy(text):
    for summand in auto_reduce(glue(parse_diagram(text)))[0]:
        entries = [p for row in summand.rows for p in (row.a, row.b)]
        entries += [repl for _, _, repl in summand.base.rules]
        assert all(map(_obeys_policy, entries))


def test_scale_split_and_replay_refusals():
    mf = koszul_new(v(X1), v(X1, 2))
    with pytest.raises(ZeroScalar) as e:
        scale_row(mf, 0, 0)
    assert str(e.value) == "row scale factor must be nonzero"
    with pytest.raises(ValueError) as e:
        split_free_module(mf, X1)
    assert str(e.value) == "no rule with leader x1"
    ruled = KoszulMF(mf.rows, QuotientRing().with_rule(X1, 3, Poly()))
    with pytest.raises(ResidualVariable) as e:
        split_free_module(ruled, X1)
    assert str(e.value) == "row 0 still contains x1"
    with pytest.raises(ValueError) as e:
        replay(mf, ReductionTrace([("bogus", {})]))
    assert str(e.value) == "unknown step 'bogus'"
