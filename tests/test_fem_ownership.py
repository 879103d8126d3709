"""Stiffness/mass assembly, sparse factorization and dense conversion belong
to hcplate.fem: no other module builds a sparse system from element matrices
(`NodeBlocks`, `DofMap`, the COO `scatter` and `triplets_to_csr`), factors
one with LAPACK's band Cholesky routines or a plain `splu`, or makes an
assembled operator dense (`toarray`, `todense`; the dense eigensolver paths
of hcplate.fem apply their size rules). hcplate.fem itself factors by band
Cholesky alone: no `splu` is left in the package. Every `factorize` call
passes the slab order of its DOFs (`order=`); grid-less test matrices are
factored in their own order."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hcplate"
BAND_CHOLESKY = {"dpbtrf", "dpbtrs", "pbtrf", "pbtrs", "cholesky_banded",
                 "cho_solve_banded", "solveh_banded"}
FEM_ONLY = {"scatter", "triplets_to_csr", "NodeBlocks", "DofMap", "splu",
            "toarray", "todense"} | BAND_CHOLESKY


def _references(tree) -> list[tuple[str | None, str]]:
    """(enclosing function, name) of every use or import of a fem-only
    name in a parsed module."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            name = None
        if name in FEM_ONLY:
            out.append((func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_no_assembly_or_factorization_outside_fem():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("fem/"):
            continue
        found += [f"{rel}:{func}:{name}"
                  for func, name in _references(ast.parse(path.read_text()))]
    assert not found, found


def test_no_splu_in_the_package():
    found = [f"{path.relative_to(SRC).as_posix()}:{func}"
             for path in sorted(SRC.rglob("*.py"))
             for func, name in _references(ast.parse(path.read_text()))
             if name == "splu"]
    assert not found, found


def test_guard_sees_calls_imports_and_attributes():
    tree = ast.parse("from .fem.system import DofMap\n"
                     "from scipy.linalg.lapack import dpbtrs\n"
                     "def build(fa, spla, sla):\n"
                     "    fa.scatter(1, 2, 3)\n"
                     "    sla.lapack.dpbtrf(0)\n"
                     "    return spla.splu(triplets_to_csr(0, 1))\n")
    assert set(_references(tree)) == {
        (None, "DofMap"), (None, "dpbtrs"), ("build", "scatter"),
        ("build", "dpbtrf"), ("build", "splu"), ("build", "triplets_to_csr")}


def _unordered_factorizations(tree) -> list[int]:
    """Lines of the `factorize(...)` calls without an `order=` keyword."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "factorize" in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))
            and not any(k.arg == "order" for k in node.keywords)]


def test_every_factorization_passes_its_order():
    found = [f"{path.relative_to(SRC).as_posix()}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             for line in _unordered_factorizations(
                 ast.parse(path.read_text()))]
    assert not found, found


def test_order_guard_sees_names_and_attributes():
    tree = ast.parse("def f(A, fs, key):\n"
                     "    factorize(A)\n"
                     "    fs.factorize(A, None, 1e-9)\n"
                     "    factorize(A, order=key)\n"
                     "    return fs.factorize(A, order=None)\n")
    assert _unordered_factorizations(tree) == [2, 3]
