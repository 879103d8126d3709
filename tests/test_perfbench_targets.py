"""The benchmark tracer patches hcplate functions by name, and its worker
calls some of them through the library; a rename, deletion or signature
change would only surface as a failed benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
WORKER = LAYERS.with_name("worker.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    missing = []
    for modname, fname, *_ in _layers().TARGETS:
        if not callable(getattr(importlib.import_module(modname), fname, None)):
            missing.append(f"{modname}.{fname}")
    assert not missing, missing


def test_counted_dispersion_method_exists():
    from hcplate.zhikov import ZhikovFunction
    assert callable(ZhikovFunction.eval)


def test_counted_dispersion_method_takes_what_the_tracer_forwards():
    # layers.py replaces ZhikovFunction.eval by counted_eval(self_, lam),
    # which passes lam on positionally
    from hcplate.zhikov import ZhikovFunction
    params = inspect.signature(ZhikovFunction.eval).parameters
    assert [(p.name, p.kind) for p in params.values()] == [
        ("self", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("lam", inspect.Parameter.POSITIONAL_OR_KEYWORD)]
    assert "counted_eval(self_, lam)" in LAYERS.read_text()


def test_worker_library_calls_bind():
    # each call of the worker binds to the signature in src: as many
    # positional arguments and the same keyword names
    from hcplate.evolution import evolve_memory_bending
    from hcplate.limits import build_limit_model
    targets = {f.__name__: f for f in (build_limit_model,
                                       evolve_memory_bending)}
    calls = [node for node in ast.walk(ast.parse(WORKER.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in targets]
    assert {c.func.id for c in calls} == set(targets)
    for c in calls:
        inspect.signature(targets[c.func.id]).bind(
            *c.args, **{k.arg: k.value for k in c.keywords})


def test_step_counters_read_parameters_of_the_sweeps():
    # layers._steps_info reads T, dt and the system by parameter name when a
    # traced sweep returns: a renamed parameter would fail the traced run
    from types import SimpleNamespace

    from hcplate.evolution import evolve_memory_bending, implicit_midpoint
    for fn, names in ((implicit_midpoint, {"system", "T", "dt"}),
                      (evolve_memory_bending, {"T", "dt"})):
        assert names <= set(inspect.signature(fn).parameters)
    build = {fname: info for _, fname, _, info in _layers().TARGETS}
    read = build["implicit_midpoint"](implicit_midpoint)
    assert read((SimpleNamespace(n=7), None, None, 0.2, 1e-3), {}, None) \
        == {"steps": 200, "dofs": 7}
    read = build["evolve_memory_bending"](evolve_memory_bending)
    assert read((None, None, 0.3), {"dt": 1e-3}, None) == {"steps": 300}


def test_size_readers_run_on_real_results(demo_material, demo_shape):
    # the info builders read sizes off the results of traced calls (the fine
    # plate's region DOF count, an assembled pair's DOFs and nnz): a renamed
    # attribute would fail the traced run only
    from hcplate import tensors as tn
    from hcplate.fem.assemble import assemble_vector_h1
    from hcplate.finescale import build_fine_problem
    from hcplate.geometry import build_macro_mesh
    layers = _layers()
    build = {fname: info for _, fname, _, info in layers.TARGETS}
    fp = build_fine_problem(demo_material, demo_shape, h=0.5, epsilon=0.5,
                            cells_per_eps=4, n_z=2, parity="memb")
    read = build["build_fine_problem"](build_fine_problem)
    assert read((), {}, fp) == {"dofs": fp.pair.dof.n_free}
    assert fp.pair.dof.n_free == sum(
        (fp.pair.dof.index >= 0).ravel()) > 0
    pair = assemble_vector_h1(build_macro_mesh(1.0, 1.0, 4, 4),
                              tn.reduced_tensor(tn.isotropic(1.0, 1.0)),
                              space="dirichlet", ncomp=2)
    read = build["assemble_vector_h1"](assemble_vector_h1)
    assert read((), {}, pair) == {"dofs": pair.dof.n_free,
                                  "nnz": pair.K.nnz}
    assert layers._pair_info((), {}, pair) == read((), {}, pair)
