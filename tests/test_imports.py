"""Modules of the package reach one another through public names only,
exact values have one zero test: ``bool()``, a value at a point is read
through ``laurent.rational_evaluator`` alone, linear systems are solved
through ``MatrixRF.solve`` alone, denominators are cleared by
``intlinalg.integer_vectors`` alone, every exact value is an int or a
Fraction, and no loop runs unbounded."""

import ast
from pathlib import Path

import symgroupoid
from symgroupoid import laurent
from symgroupoid.laurent import LaurentPoly
from symgroupoid.matrices import MatrixRF

PACKAGE_DIR = Path(symgroupoid.__file__).parent


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "symgroupoid"
            )
            if internal:
                source = "." * node.level + (node.module or "")
                private = [a.name for a in node.names if a.name.startswith("_")]
                offenders += [f"{path.name}: from {source} import {name}" for name in private]
    assert not offenders, offenders


def test_no_module_has_a_second_zero_protocol():
    # an is_zero method, an is_zero_entry helper or a hasattr probe would be
    # a second way to ask whether an exact value vanishes
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.FunctionDef, ast.alias)):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            else:
                continue
            if name in ("is_zero", "is_zero_entry", "hasattr"):
                offenders.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    assert not offenders, offenders


def test_no_module_has_a_while_true_loop():
    # every loop is bounded by its condition or by a for over a known range
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.While) and isinstance(node.test, ast.Constant) and node.test.value:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def _named_outside(owners: tuple, names: tuple) -> list:
    """Where a module other than ``owners`` names one of ``names``, by
    definition, import, call or attribute."""
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in names:
                offenders.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    return offenders


def test_only_laurent_names_point_plan():
    # one evaluation routine: outside laurent a value at a point is read
    # through laurent.rational_evaluator, whose one-point form is
    # RationalFn.evaluate and whose matrix form is MatrixRF.evaluator; no
    # other module names the integer plan, by import, call or attribute, and
    # no module names an entry that only passed through to these
    deleted = ("point_pass", "evaluate_rational_fns")
    offenders = _named_outside(("laurent.py",), ("point_plan",)) + _named_outside((), deleted)
    assert not offenders, offenders
    assert not [name for name in deleted if hasattr(laurent, name)]
    assert "evaluate" not in vars(LaurentPoly) and "evaluate" not in vars(MatrixRF)


def test_only_intlinalg_names_lcm():
    # one clearing of denominators: intlinalg.integer_vectors puts rational
    # vectors over one scale, so no other module names lcm, and the
    # per-module clearing helpers and the second trace cubic are gone
    deleted = ("_cleared", "_integer_rows", "_markov_combination")
    offenders = _named_outside(("intlinalg.py",), ("lcm",)) + _named_outside((), deleted)
    assert not offenders, offenders


def test_only_matrices_calls_solve_bareiss():
    # one linear solve: other modules go through MatrixRF.solve and never
    # name the integer solve, by import, call or attribute
    offenders = _named_outside(("intlinalg.py", "matrices.py"), ("solve_bareiss",))
    assert not offenders, offenders


def test_no_module_names_gaussian_rational():
    # exact values are ints and Fractions: the checks at Casimir -1 run on a
    # real congruent form of the chain matrix (``suites._real_congruence``),
    # so no second number system is needed
    assert not (PACKAGE_DIR / "gauss.py").exists()
    offenders = [path.name for path in sorted(PACKAGE_DIR.rglob("*.py")) if "GaussianRational" in path.read_text()]
    assert not offenders, offenders
