"""Stiffness/mass assembly, sparse factorization and dense conversion belong
to hcplate.fem: no other module builds a sparse system from element matrices
(`scatter`, `triplets_to_csr`, `DofMap`), factors one with a plain `splu`,
or makes an assembled operator dense (`toarray`, `todense`; the dense
eigensolver paths of hcplate.fem apply their size rules)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hcplate"
FEM_ONLY = {"scatter", "triplets_to_csr", "DofMap", "splu", "toarray",
            "todense"}
# (module, function, name): the shifted operator K - lambda M of the
# truncation-free beta is indefinite, so the SPD path does not apply
ALLOWED = {("zhikov.py", "beta_oracle", "splu")}


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
        for func, name in _references(ast.parse(path.read_text())):
            if (rel, func, name) not in ALLOWED:
                found.append(f"{rel}:{func}:{name}")
    assert not found, found


def test_guard_sees_calls_imports_and_attributes():
    tree = ast.parse("from .fem.system import DofMap\n"
                     "def build(fa, spla):\n"
                     "    fa.scatter(1, 2, 3)\n"
                     "    return spla.splu(triplets_to_csr(0, 1))\n")
    assert set(_references(tree)) == {
        (None, "DofMap"), ("build", "scatter"), ("build", "splu"),
        ("build", "triplets_to_csr")}
