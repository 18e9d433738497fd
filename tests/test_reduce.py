"""Exclusion-based simplification: invariants, traces, canonical forms."""

import random

import pytest

from moycalc.diagram import glue, parse_diagram
from moycalc.homology import euler_characteristic, graded_homology
from moycalc.mf import MFSum, koszul_new
from moycalc.poly import Poly
from moycalc import reduce as reduce_module
from moycalc.reduce import (NotMonicInVariable, VariableInPotential,
                            _relabel, auto_reduce, canonical_form,
                            exclude_variable, replay, scale_row,
                            split_free_module)

CIRCLE = "n %d\narc x1 x2\nglue x1 x2\n"
DCIRCLE = "n %d\ndline d1 d2\nglue d1 d2\n"
THETA = ("n %d\nvin x1 x2 d1\nvout d2 x3 x4\nglue d1 d2\n"
         "glue x3 x1\nglue x4 x2\n")

# criterion 8's seed-2024 item 31: nonzero potential, nested splits
ITEM31 = ("n 3\narc x1 x2\nvout d1 x3 x4\nwide x5 x6 x7 x8\n"
          "vout d2 x9 x10\narc x11 x12\nglue x2 x1\nglue x6 x7\n"
          "glue x10 x8\nglue x5 x11\n")
# a closed web (zero potential) whose reduction splits inside a split
NESTED = ("n 3\narc x1 x2\narc x3 x4\narc x5 x6\narc x7 x8\n"
          "wide x9 x10 x11 x12\nwide x13 x14 x15 x16\nwide x17 x18 x19 x20\n"
          "glue x6 x11\nglue x8 x12\nglue x2 x15\nglue x4 x16\n"
          "glue x14 x19\nglue x9 x20\nglue x13 x1\nglue x17 x3\n"
          "glue x18 x5\nglue x10 x7\n")

X1, X2 = ("x", 1), ("x", 2)


def v(var, e=1):
    return Poly.var(var, e)


def _circle_mf(n):
    return glue(parse_diagram(CIRCLE % n))


def test_scale_row_preserves_potential_and_class():
    m = koszul_new(v(X1, 3), v(X1) * 2)
    s = scale_row(m, 0, 3)
    assert s.potential() == m.potential()
    assert canonical_form(s) == canonical_form(m)


def test_exclude_refuses_potential_variable():
    m = koszul_new(v(X1, 3), v(X1))
    with pytest.raises(VariableInPotential):
        exclude_variable(m, 0, X1)


def test_exclude_refuses_potential_variable_on_the_a_side():
    # the a-entry x1^3 is monic in x1, but x1 occurs in the potential x1^4
    m = koszul_new(v(X1, 3), v(X1))
    with pytest.raises(VariableInPotential):
        exclude_variable(m, 0, X1, "a")


def test_exclude_refuses_non_monic_entry():
    m = koszul_new(v(X1) * v(X2), v(X1) * v(X2))
    with pytest.raises(NotMonicInVariable):
        exclude_variable(m, 0, X2)


def test_exclude_linear_substitutes_without_rule():
    # zero potential; excluding z1 substitutes z1 -> x1^2 into the other row
    Z1 = ("z", 1)
    m = (koszul_new(v(X1), v(Z1) - v(X1, 2))
         @ koszul_new(v(X1), v(X1, 2) - v(Z1)))
    out = exclude_variable(m, 0, Z1)
    assert len(out.rows) == 1
    assert out.base.rules == ()
    assert out.rows[0].a == v(X1)
    assert out.rows[0].b.is_zero()


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


@pytest.mark.parametrize("text", [ITEM31, NESTED], ids=["item31", "nested"])
def test_replay_follows_splits(text):
    mf = glue(parse_diagram(text))
    reduced, trace = auto_reduce(mf)
    assert any(kind == "split" for kind, _ in trace.steps)
    replayed = replay(mf, trace)
    assert ([canonical_form(s) for s in replayed]
            == [canonical_form(s) for s in reduced])


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


def test_split_free_module():
    base = auto_reduce(_circle_mf(3))[0].summands[0].base
    (var, power, _), = base.rules
    m = koszul_new(Poly(), Poly(), base=base, deg_a=2, deg_b=2).replace(
        rows=())
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


def test_reduction_order_does_not_change_homology():
    for text in (CIRCLE % 4, DCIRCLE % 4, THETA % 3):
        mf = glue(parse_diagram(text))
        baseline = graded_homology(auto_reduce(mf)[0])
        for seed in range(5):
            shuffled, _ = auto_reduce(mf, order=random.Random(seed))
            assert graded_homology(shuffled) == baseline


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
