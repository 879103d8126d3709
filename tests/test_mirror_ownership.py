"""The mirror steps belong to hcplate.geometry: no other module cuts a
fundamental region (`mirror_region`) or applies the pin rule
(`parity_pinned`) itself; the cell tensors, the inclusion spectra and the
fine plate reach them through `geometry.MirrorClasses`. `mirror_images`
and `unfold` join the guarded names if they are module functions of
geometry again."""

import ast
import inspect
from pathlib import Path

from hcplate import geometry

SRC = Path(__file__).resolve().parents[1] / "src" / "hcplate"
GEOMETRY_ONLY = {"mirror_region", "parity_pinned"} | {
    name for name in ("mirror_images", "unfold")
    if inspect.isfunction(getattr(geometry, name, None))}


def _references(tree, names) -> list[tuple[str | None, str]]:
    """(enclosing function, name) of every use or import of one of `names`
    in a parsed module."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name.rsplit(".", 1)[-1]
                if isinstance(node, ast.alias) else None)
        if name in names:
            out.append((func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_no_mirror_steps_outside_geometry():
    found = [f"{rel}:{func}:{name}"
             for path in sorted(SRC.rglob("*.py"))
             if (rel := path.relative_to(SRC).as_posix()) != "geometry.py"
             for func, name in _references(ast.parse(path.read_text()),
                                           GEOMETRY_ONLY)]
    assert not found, found


def test_images_and_unfold_are_the_objects():
    assert {"images", "unfold", "fold"} <= set(vars(geometry.MirrorClasses))
    assert GEOMETRY_ONLY == {"mirror_region", "parity_pinned"}


def test_guard_sees_calls_imports_and_attributes():
    tree = ast.parse("from .geometry import parity_pinned\n"
                     "from . import geometry as g\n"
                     "def cut(mesh, unfold):\n"
                     "    region, planes = g.mirror_region(mesh, [0])\n"
                     "    return unfold(region), mesh.unfold\n")
    names = {"mirror_region", "parity_pinned", "unfold"}
    assert set(_references(tree, names)) == {
        (None, "parity_pinned"), ("cut", "mirror_region"), ("cut", "unfold")}
    assert _references(tree, {"mirror_images"}) == []
