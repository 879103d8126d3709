"""The meshes belong to hcplate.geometry: one mesh class (`GridMesh`) and
one function that lays grid nodes and connectivity (`grid_mesh`). No
other src module defines a mesh class or builds grid nodes; the cell,
the mid-plane and the fine plate reach the grid through the builders'
thin callers (`build_cell_mesh`, `build_macro_mesh`, the fine plate's
tiling check)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hcplate"
# numpy's grid constructor and the grid helpers that geometry once exported
GRID_NAMES = {"meshgrid", "mgrid", "structured_quads", "extrude",
              "_periodic_map_2d"}
# the tensor-product Gauss points of one element: a quadrature rule, not
# mesh nodes
QUADRATURE = ("fem/elements.py", "grid in _gauss_rule", "meshgrid")


def _mesh_steps(tree) -> list[tuple[str, str]]:
    """(kind, name) of every mesh class defined in a parsed module (named
    *Mesh, or with `nodes` and `elements` fields) and of every use or
    import of a grid-building name, with the function it sits in."""
    out = []

    def visit(node, func):
        if isinstance(node, ast.ClassDef):
            fields = {s.target.id for s in node.body
                      if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)}
            if node.name.endswith("Mesh") or {"nodes", "elements"} <= fields:
                out.append(("class", node.name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name.rsplit(".", 1)[-1]
                if isinstance(node, ast.alias) else None)
        if name in GRID_NAMES:
            out.append((f"grid in {func}", name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def _steps_by_module() -> dict[str, list]:
    return {path.relative_to(SRC).as_posix():
            _mesh_steps(ast.parse(path.read_text()))
            for path in sorted(SRC.rglob("*.py"))}


def test_no_mesh_class_or_grid_outside_geometry():
    found = [f"{rel}: {kind} {name}"
             for rel, steps in _steps_by_module().items()
             if rel != "geometry.py" for kind, name in steps
             if (rel, kind, name) != QUADRATURE]
    assert not found, found


def test_geometry_has_one_mesh_class_and_one_grid_builder():
    assert _steps_by_module()["geometry.py"] == [
        ("class", "GridMesh"), ("grid in grid_mesh", "meshgrid")]


def test_guard_sees_classes_calls_and_imports():
    tree = ast.parse("from .geometry import extrude\n"
                     "import numpy as np\n"
                     "class PlateMesh:\n"
                     "    pass\n"
                     "class Grid:\n"
                     "    nodes: np.ndarray\n"
                     "    elements: np.ndarray\n"
                     "def lay(t):\n"
                     "    return np.meshgrid(t, t)\n")
    assert _mesh_steps(tree) == [
        ("grid in None", "extrude"), ("class", "PlateMesh"),
        ("class", "Grid"), ("grid in lay", "meshgrid")]
