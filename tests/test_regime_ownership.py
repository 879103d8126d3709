"""Which scaling row a regime is belongs to hcplate.limits: its regime table
(ROWS, RegimeConfig.kind) is the one place that compares a regime's
contrast scaling `mu`, time scaling `tau` or secondary ratio `kappa`. Every
other module reads the row from the table instead of branching on them."""

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
