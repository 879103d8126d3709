"""Which scaling row a regime is belongs to hcplate.limits: its regime table
(ROWS, RegimeConfig.kind) is the one place that compares a regime's
contrast scaling `mu`, time scaling `tau` or secondary ratio `kappa`. Every
other module reads the row from the table instead of branching on them.
Likewise a row's grand modal system (a ModalCoupling) is built only there,
by LimitModel.coupling."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hcplate"
REGIME_ONLY = {"mu", "tau", "kappa"}
OWNER = "limits.py"


def _comparisons(tree) -> list[tuple[int, str]]:
    """(line, attribute) of every comparison with a `.mu`, `.tau` or
    `.kappa` operand in a parsed module, one entry per line."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for operand in [node.left, *node.comparators]:
            if isinstance(operand, ast.Attribute) \
                    and operand.attr in REGIME_ONLY:
                out.add((node.lineno, operand.attr))
    return sorted(out)


def test_no_regime_comparison_outside_limits():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == OWNER:
            continue
        for line, attr in _comparisons(ast.parse(path.read_text())):
            found.append(f"{rel}:{line}:{attr}")
    assert not found, found


def test_guard_sees_every_comparison_form():
    tree = ast.parse("def run(regime, model, fp):\n"
                     "    if regime.mu == 'eps' and regime.tau == 2:\n"
                     "        pass\n"
                     "    ok = model.regime.kappa is None\n"
                     "    rows = [r for r in rows if 0 < r.tau]\n"
                     "    scale = fp.h ** (-fp.tau)\n"
                     "    return regime.mu in ('eps_h',), regime.kind == 'x'\n")
    assert _comparisons(tree) == [(2, "mu"), (2, "tau"), (4, "kappa"),
                                  (5, "tau"), (7, "mu")]


def _couplings_built(tree) -> list[int]:
    """Lines of every `ModalCoupling(...)` call in a parsed module."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                   == "ModalCoupling"})


def test_modal_coupling_built_only_in_limits():
    found, owner = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        lines = _couplings_built(ast.parse(path.read_text()))
        (owner if rel == OWNER else found).extend(
            f"{rel}:{line}" for line in lines)
    assert not found, found
    assert owner, "limits.py builds no ModalCoupling"


def test_coupling_guard_sees_every_call_form():
    tree = ast.parse("from . import coupling\n"
                     "def run(a):\n"
                     "    x = ModalCoupling(M0=a)\n"
                     "    y = coupling.ModalCoupling(a)\n"
                     "    return ModalCoupling, x.shift(1.0, 0.0)\n")
    assert _couplings_built(tree) == [3, 4]
