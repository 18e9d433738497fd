"""The benchmark's tracer rebinds program names and puts them back.

``perfbench/tracing.py`` looks program functions up by name; renaming or
removing one of them must fail here, not only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a moycalc module or in a class defined there."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "moycalc" or module is None:
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[(name, attr, key)] = member
    return out


def test_tracer_restores_the_names_it_rebinds():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer().install()
    try:
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    rebound = {key for key in before if during[key] is not before[key]}
    assert {("moycalc", "auto_reduce"),
            ("moycalc", "bracket"),
            ("moycalc", "exclude_variable"),
            ("moycalc", "glue"),
            ("moycalc", "graded_homology"),
            ("moycalc", "parse_diagram"),
            ("moycalc", "verify_factorization"),
            ("moycalc.diagram", "glue"),
            ("moycalc.diagram", "parse_diagram"),
            ("moycalc.diagram", "pi_poly"),
            ("moycalc.diagram", "power_sum_at"),
            ("moycalc.diagram", "uv_polys"),
            ("moycalc.homology", "_explicit_homology"),
            ("moycalc.homology", "graded_homology"),
            ("moycalc.laurent", "LaurentPoly", "__mul__"),
            ("moycalc.mf", "KoszulMF", "potential"),
            ("moycalc.mf", "KoszulMF", "to_explicit"),
            ("moycalc.mf", "verify_factorization"),
            ("moycalc.moybracket", "MOYGraph", "from_diagram"),
            ("moycalc.moybracket", "bracket"),
            ("moycalc.moybracket", "expand_crossings"),
            ("moycalc.moybracket", "parse_diagram"),
            ("moycalc.poly", "Poly", "__add__"),
            ("moycalc.poly", "Poly", "__mul__"),
            ("moycalc.poly", "Poly", "__radd__"),
            ("moycalc.poly", "Poly", "__rmul__"),
            ("moycalc.quotient", "QuotientRing", "normal_form"),
            ("moycalc.quotient", "QuotientRing", "with_rule"),
            ("moycalc.reduce", "auto_reduce"),
            ("moycalc.reduce", "exclude_variable")} <= rebound
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
