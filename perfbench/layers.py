"""Outside-in tracing of the hcplate layers for the traced benchmark run.

`Tracer.install` wraps the public functions of each layer module, plus
`scipy.sparse.linalg.splu`, `scipy.sparse.linalg.eigsh` and
`scipy.linalg.eigh` as hcplate calls them, in every hcplate namespace that
bound them (`limits` binds `effective_delta` and `bloch_spectrum` at import,
`bloch` and `finescale` bind `eigs_smallest`, ...). Each call records a span:
name, layer, start, end, parent span, operation id and a few sizes read from
its arguments or result. Spans stay in memory; `layer_metrics` turns the
spans of one pass into the per-layer metrics. The wrappers stay for the
life of the process, which runs one traced pass.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "layer", "t0", "t1", "parent", "op", "info", "error")

    def __init__(self, name, layer, parent, op):
        self.name, self.layer, self.parent, self.op = name, layer, parent, op
        self.t0 = self.t1 = 0.0
        self.info = {}
        self.error = False

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def to_list(self):
        return [self.name, self.layer, self.t0, self.t1, self.parent, self.op,
                self.info, self.error]


def _arg(fn, name):
    """Reader for one named argument of `fn`, positional or keyword."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _pair_info(args, kwargs, res):
    return {"dofs": res.n, "nnz": res.K.nnz} if hasattr(res, "K") else {}


def _splu_info(args, kwargs, res):
    A = args[0] if args else kwargs["A"]
    # lu.nnz: entries SuperLU stores for L and U together
    return {"n": A.shape[0], "nnz": A.nnz, "fill": res.nnz}


def _steps_info(fn, first_is_system):
    T, dt = _arg(fn, "T"), _arg(fn, "dt")
    system = _arg(fn, "system") if first_is_system else None

    def info(args, kwargs, res):
        out = {"steps": int(round(T(args, kwargs) / dt(args, kwargs)))}
        if system is not None:
            out["dofs"] = system(args, kwargs).n
        return out
    return info


# (module, function, layer, info builder taking the original function)
TARGETS = [
    ("hcplate.geometry", "build_cell_mesh", "geometry", None),
    ("hcplate.geometry", "build_macro_mesh", "geometry", None),
    ("hcplate.fem.assemble", "assemble_vector_h1", "fem.assemble",
     lambda f: _pair_info),
    ("hcplate.fem.assemble", "assemble_bfs_h2", "fem.assemble",
     lambda f: _pair_info),
    ("hcplate.fem.assemble", "assemble_rect_block", "fem.assemble", None),
    ("hcplate.fem.assemble", "assemble_element_load", "fem.assemble", None),
    ("hcplate.fem.assemble", "assemble_pointwise_load", "fem.assemble", None),
    ("hcplate.fem.system", "eigs_smallest", "fem.system",
     lambda f: (lambda a, k, r, p=_arg(f, "pair"): {"dofs": p(a, k).n})),
    ("hcplate.fem.system", "solve_spd", "fem.system", None),
    ("hcplate.fem.system", "detect_kernel", "fem.system", None),
    ("scipy.sparse.linalg", "eigsh", "fem.system", None),
    ("scipy.linalg", "eigh", "fem.system", None),
    ("scipy.sparse.linalg", "splu", "splu", lambda f: _splu_info),
    ("hcplate.effective", "effective_delta", "effective", None),
    ("hcplate.effective", "effective_delta0", "effective", None),
    ("hcplate.effective", "effective_deltainf", "effective", None),
    ("hcplate.bloch", "bloch_spectrum", "bloch",
     lambda f: (lambda a, k, r: {"modes": r.n_modes})),
    ("hcplate.bloch", "build_inclusion_operator", "bloch", None),
    ("hcplate.bloch", "strip_bottom_m0", "bloch", None),
    ("hcplate.bloch", "strip_fiber_bottom", "bloch", None),
    ("hcplate.zhikov", "zhikov_from_bloch", "zhikov", None),
    ("hcplate.zhikov", "zhikov_variant", "zhikov", None),
    ("hcplate.zhikov", "limit_spectrum", "zhikov",
     lambda f: (lambda a, k, r: {"points": len(r.points)})),
    ("hcplate.macro", "build_membrane_operator", "macro",
     lambda f: (lambda a, k, r: {"dofs": r.n})),
    ("hcplate.macro", "build_bending_operator", "macro",
     lambda f: (lambda a, k, r: {"dofs": r.n})),
    ("hcplate.macro", "macro_eigs", "macro", None),
    ("hcplate.limits", "build_limit_model", "limits", None),
    ("hcplate.limits", "solve_limit_resolvent", "limits", None),
    ("hcplate.evolution", "evolve", "evolution", None),
    ("hcplate.evolution", "implicit_midpoint", "evolution",
     lambda f: _steps_info(f, True)),
    ("hcplate.evolution", "evolve_memory_bending", "evolution",
     lambda f: _steps_info(f, False)),
    ("hcplate.finescale", "build_fine_problem", "finescale",
     lambda f: (lambda a, k, r: {"dofs": r.pair.n})),
    ("hcplate.finescale", "fine_eigs", "finescale", None),
    ("hcplate.config", "load_config", "config", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.beta_evals = 0
        self._stack: list[int] = []
        self._open = defaultdict(int)

    # -- spans -------------------------------------------------------------
    def begin(self, name, layer) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else None,
                    self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open[name] += 1
        span.t0 = time.perf_counter()
        return span

    def end(self, span: Span, error: bool):
        span.t1 = time.perf_counter()
        span.error = error
        self._stack.pop()
        self._open[span.name] -= 1

    def _wrap(self, fn, name, layer, info):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name, layer)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                tracer.end(span, True)
                raise
            tracer.end(span, False)
            if info is not None:
                span.info = info(args, kwargs, res)
            return res
        return traced

    # -- patching ----------------------------------------------------------
    def _patch_everywhere(self, original, wrapper, home):
        """Rebind `original` in its home module and in every hcplate module
        namespace that holds it."""
        mods = [home] + [m for n, m in list(sys.modules.items())
                         if n.startswith("hcplate") and m is not None]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self):
        for modname, fname, layer, info_of in TARGETS:
            home = importlib.import_module(modname)
            fn = getattr(home, fname)
            name = f"{modname.split('.')[0]}.{fname}" \
                if modname.startswith("scipy") else f"{layer}.{fname}"
            info = info_of(fn) if info_of else None
            self._patch_everywhere(fn, self._wrap(fn, name, layer, info), home)

        zf = sys.modules["hcplate.zhikov"].ZhikovFunction
        original = zf.eval
        tracer = self

        def counted_eval(self_, lam):
            if tracer._open["zhikov.limit_spectrum"]:
                tracer.beta_evals += 1
            return original(self_, lam)
        zf.eval = counted_eval


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def _caller_layer(spans, i):
    """Nearest enclosing layer other than splu (for factorization time)."""
    p = spans[i].parent
    while p is not None and spans[p].layer == "splu":
        p = spans[p].parent
    return None if p is None else spans[p].layer


COUNT_METRICS = [
    "geometry.mesh_calls", "fem.assemble.calls", "fem.assemble.dofs",
    "fem.assemble.nnz", "splu.calls", "splu.max_n", "splu.fill_nnz",
    "fem.system.eigs_calls", "fem.system.eigs_dense_calls",
    "fem.system.eigs_max_dofs", "fem.system.eigsh_errors", "effective.calls",
    "effective.cell_dofs", "bloch.modes", "bloch.fiber_solves",
    "zhikov.beta_evals", "zhikov.points", "macro.dofs",
    "limits.resolvent_calls", "evolution.steps", "evolution.system_dofs",
    "finescale.dofs",
]


def layer_metrics(spans: list[Span], beta_evals: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selft = _self_times(spans)

    def top(layer, names=None):
        """Spans of `layer` (optionally only `names`) with no ancestor of
        the same layer, so nested calls are not counted twice."""
        out = []
        for i, s in enumerate(spans):
            if s.layer != layer or (names and s.name not in names):
                continue
            p = s.parent
            while p is not None and spans[p].layer != layer:
                p = spans[p].parent
            if p is None:
                out.append(s)
        return out

    def tsum(layer, *names):
        return sum(s.dur for s in top(layer, set(names) or None))

    def named(*names):
        return [s for s in spans if s.name in names]

    def under(i, layer):
        return _caller_layer(spans, i) == layer

    lu = [(i, s) for i, s in enumerate(spans) if s.layer == "splu"]
    eigs = named("fem.system.eigs_smallest")
    eigs_ids = {i for i, s in enumerate(spans)
                if s.name == "fem.system.eigs_smallest"}
    mids = [(i, s) for i, s in enumerate(spans)
            if s.name == "evolution.implicit_midpoint"]
    mid_ids = {i for i, _ in mids}
    mid_lu = sum(s.dur for _, s in lu if s.parent in mid_ids)
    steps = sum(s.info.get("steps", 0) for _, s in mids)
    eff_ids = {i for i, s in enumerate(spans) if s.layer == "effective"}
    asm = [s for s in spans if s.layer == "fem.assemble"]
    return {
        "geometry.mesh_s": tsum("geometry"),
        "geometry.mesh_calls": len(named("geometry.build_cell_mesh",
                                         "geometry.build_macro_mesh")),
        "fem.assemble.s": tsum("fem.assemble"),
        "fem.assemble.calls": len(asm),
        "fem.assemble.dofs": sum(s.info.get("dofs", 0) for s in asm),
        "fem.assemble.nnz": sum(s.info.get("nnz", 0) for s in asm),
        "splu.s": sum(s.dur for _, s in lu),
        "splu.calls": len(lu),
        "splu.max_n": max((s.info["n"] for _, s in lu), default=0),
        "splu.fill_nnz": sum(s.info["fill"] for _, s in lu),
        "splu.fill_ratio": (sum(s.info["fill"] for _, s in lu)
                            / max(sum(s.info["nnz"] for _, s in lu), 1)),
        "effective.splu_s": sum(s.dur for i, s in lu if under(i, "effective")),
        "evolution.splu_s": sum(s.dur for i, s in lu if under(i, "evolution")),
        "limits.splu_s": sum(s.dur for i, s in lu if under(i, "limits")),
        "fem.system.eigs_s": sum(s.dur for s in eigs),
        "fem.system.eigs_calls": len(eigs),
        "fem.system.eigs_dense_calls": sum(
            1 for s in spans if s.name == "scipy.eigh" and s.parent in eigs_ids),
        "fem.system.eigs_max_dofs": max((s.info["dofs"] for s in eigs),
                                        default=0),
        "fem.system.eigsh_errors": sum(
            1 for s in spans if s.name == "scipy.eigsh" and s.error
            and s.parent is not None and not spans[s.parent].error),
        "fem.system.solve_spd_s": sum(s.dur for s in
                                      named("fem.system.solve_spd")),
        "effective.s": tsum("effective"),
        "effective.self_s": sum(selft[i] for i in eff_ids),
        "effective.calls": len(eff_ids),
        "effective.cell_dofs": sum(
            s.info.get("dofs", 0) for s in asm
            if s.parent is not None and spans[s.parent].layer == "effective"),
        "bloch.spectrum_s": tsum("bloch", "bloch.bloch_spectrum"),
        "bloch.modes": sum(s.info["modes"] for s in
                           named("bloch.bloch_spectrum")),
        "bloch.strip_m0_s": tsum("bloch", "bloch.strip_bottom_m0"),
        "bloch.fiber_solves": len(named("bloch.strip_fiber_bottom")),
        "zhikov.limit_spectrum_s": tsum("zhikov", "zhikov.limit_spectrum"),
        "zhikov.beta_evals": beta_evals,
        "zhikov.points": sum(s.info["points"] for s in
                             named("zhikov.limit_spectrum")),
        "macro.operator_s": tsum("macro", "macro.build_membrane_operator",
                                 "macro.build_bending_operator"),
        "macro.eigs_s": tsum("macro", "macro.macro_eigs"),
        "macro.dofs": sum(s.info["dofs"] for s in named(
            "macro.build_membrane_operator", "macro.build_bending_operator")),
        "limits.model_s": tsum("limits", "limits.build_limit_model"),
        "limits.resolvent_s": tsum("limits", "limits.solve_limit_resolvent"),
        "limits.resolvent_calls": len(named("limits.solve_limit_resolvent")),
        "evolution.evolve_s": tsum("evolution", "evolution.evolve"),
        "evolution.factor_s": mid_lu,
        "evolution.step_ms": (1e3 * (sum(s.dur for _, s in mids) - mid_lu)
                              / steps if steps else 0.0),
        "evolution.steps": steps + sum(
            s.info["steps"] for s in named("evolution.evolve_memory_bending")),
        "evolution.system_dofs": max((s.info["dofs"] for _, s in mids),
                                     default=0),
        "evolution.memory_s": tsum("evolution",
                                   "evolution.evolve_memory_bending"),
        "finescale.build_s": tsum("finescale", "finescale.build_fine_problem"),
        "finescale.eigs_s": tsum("finescale", "finescale.fine_eigs"),
        "finescale.dofs": sum(s.info["dofs"] for s in
                              named("finescale.build_fine_problem")),
        "config.load_s": tsum("config"),
        "cli.self_s": sum(selft[i] for i, s in enumerate(spans)
                          if s.layer == "cli"),
    }


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Self time per layer, splu split by calling layer, over op time."""
    selft = _self_times(spans)
    by = defaultdict(float)
    for i, s in enumerate(spans):
        key = s.layer
        if key == "splu":
            key = f"splu<{_caller_layer(spans, i)}>"
        by[key] += selft[i]
    total = sum(s.dur for s in spans if s.parent is None)
    return {k: v / total for k, v in sorted(by.items(), key=lambda kv: -kv[1])}


def coverage_violations(spans: list[Span]) -> int:
    """Spans that fall outside the operation span of their operation."""
    ops = {s.op: s for s in spans if s.parent is None}
    return sum(1 for s in spans
               if s.t0 < ops[s.op].t0 or s.t1 > ops[s.op].t1)
