"""Spans around the program's public functions, installed at run time by
the benchmark; nothing under src/ changes.

A stored span has a name, start, end and parent and is kept in memory until
the run writes it out.  Hot leaf calls (`get_weierstrass_pair`, `G`,
`eval_division_poly`, `group_structure`, ...) are not stored one by one:
each is folded into its nearest stored ancestor as a count and a total, so
the store stays bounded.  Self time is a call's duration minus the time of
its direct children.  Wrappers around functions that take a `MultCounter`
also record its delta, which gives the per-layer multiplication ledger.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    mults: int = 0


class _Frame:
    __slots__ = ("name", "start", "child_s", "span_id", "leaves")

    def __init__(self, name, start, span_id, leaves):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span_id = span_id
        self.leaves = leaves


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.layers: dict[str, Layer] = {}
        self.stats: dict[str, float] = {}
        self.genuine_oracle: list[tuple[int, int]] = []  # (p, mults)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._next_id = 0

    def enter(self, name: str, stored: bool) -> _Frame:
        span_id = None
        if stored:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, time.perf_counter(), span_id, {} if stored else None)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame, mults: int = 0) -> None:
        end = time.perf_counter()
        duration = end - frame.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += duration
        layer = self.layers.get(frame.name)
        if layer is None:
            layer = self.layers[frame.name] = Layer()
        layer.calls += 1
        layer.total_s += duration
        layer.self_s += duration - frame.child_s
        layer.mults += mults
        parent = next((f for f in reversed(self._stack) if f.span_id is not None), None)
        if frame.span_id is not None:
            self.spans.append({
                "id": frame.span_id, "name": frame.name,
                "start": frame.start, "end": end,
                "parent": parent.span_id if parent else None,
                "self_s": duration - frame.child_s,
                "leaves": frame.leaves,
            })
        elif parent is not None:
            leaf = parent.leaves.setdefault(frame.name, [0, 0.0])
            leaf[0] += 1
            leaf[1] += duration

    def add(self, stat: str, value: float) -> None:
        self.stats[stat] = self.stats.get(stat, 0.0) + value

    def calls(self, name: str) -> int:
        layer = self.layers.get(name)
        return layer.calls if layer else 0

    def mults(self, name: str) -> int:
        layer = self.layers.get(name)
        return layer.mults if layer else 0

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "layers": {k: asdict(v) for k, v in self.layers.items()},
                       "stats": self.stats, "missing": self.missing}, fh)


def _wrap(tracer: Tracer, fn, name: str, stored: bool, hook, counter_cls):
    params = list(inspect.signature(fn).parameters)
    pos = params.index("ctr") if "ctr" in params else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ctr = None
        if pos is not None:
            ctr = args[pos] if len(args) > pos else kwargs.get("ctr")
            if ctr is None:
                # Every function here treats ctr=None as "a fresh counter",
                # so passing one in changes nothing but makes it visible.
                ctr = counter_cls()
                if len(args) > pos:
                    args = args[:pos] + (ctr,) + args[pos + 1:]
                else:
                    kwargs["ctr"] = ctr
        before = ctr.count if ctr is not None else 0
        token = hook.before(tracer, args) if hook else None
        frame = tracer.enter(name, stored)
        spent = 0
        try:
            result = fn(*args, **kwargs)
        finally:
            if ctr is not None:
                spent = ctr.count - before
            tracer.exit(frame, spent)
        if hook:
            hook.after(tracer, token, args, result, spent)
        return result

    return wrapper


class _Hook:
    def before(self, tracer, args):
        return None

    def after(self, tracer, token, args, result, mults):
        pass


class _Lanes(_Hook):  # BatchAmbient.__init__(self, ctx, A, B, x)
    def after(self, tracer, token, args, result, mults):
        tracer.add("divpoly.batch_lanes", len(args[2]))


class _EvalBits(_Hook):  # eval_division_poly(ctx, E, x, ell, ctr)
    def after(self, tracer, token, args, result, mults):
        tracer.add("divpoly.eval_bits", (args[3] - 1).bit_length())


class _Cells(_Hook):  # count_points_batch(ctx, A, B)
    def after(self, tracer, token, args, result, mults):
        tracer.add("curves.count_batch_cells", args[0].p * len(args[1]))


class _Probes(_Hook):  # F(ctx, E, s, cfg, ctr, ...): x probed per rejection
    def before(self, tracer, args):
        return tracer.calls("forgery.G")

    def after(self, tracer, token, args, result, mults):
        if result != 0:
            tracer.add("forgery.F_rejects", 1)
            tracer.add("forgery.F_reject_x", tracer.calls("forgery.G") - token)


class _Sweep(_Hook):  # batch_marked(ctx, classes, s, cfg, nr)
    def before(self, tracer, args):
        return tracer.stats.get("divpoly.batch_lanes", 0.0)

    def after(self, tracer, token, args, result, mults):
        tracer.add("forgery.sweep_classes", len(args[1]))
        tracer.add("forgery.sweep_marked", int(result.sum()))
        tracer.add("forgery.sweep_lanes", tracer.stats.get("divpoly.batch_lanes", 0.0) - token)


class _Grover(_Hook):  # run_search(ctx, s, plan, cfg, ...)
    def after(self, tracer, token, args, result, mults):
        plan = args[2]
        tracer.add("grover.searches", 1)
        tracer.add("grover.iterations", result.iterations)
        tracer.add("grover.state_len", plan.N)
        tracer.add("grover.amp_iters", plan.N * result.iterations)
        low = tracer.stats.get("grover.success_min", 1.0)
        tracer.stats["grover.success_min"] = min(low, result.success_probability)


class _Oracle(_Hook):  # oracle_predicate(ctx, c, s, cfg, nr, ctr)
    def after(self, tracer, token, args, result, mults):
        if result == 1:
            tracer.genuine_oracle.append((args[0].p, mults))


class _Draws(_Hook):  # mint(ctx, seed, table=None)
    def before(self, tracer, args):
        return tracer.calls("classnum.frobenius_discriminant")

    def after(self, tracer, token, args, result, mults):
        tracer.add("scheme.mint_notes", 1)
        tracer.add("scheme.mint_draws",
                   tracer.calls("classnum.frobenius_discriminant") - token)


# The multiplication ledger: every F_p multiplication of a scalar oracle
# call is billed inside one of these (G includes its eval_division_poly).
LEDGER = ("curves.get_weierstrass_pair", "forgery.G", "divpoly.eval_division_poly")

# (module, attribute, stored, hook); a dotted attribute names a method.
TARGETS = [
    ("cli", "dispatch", True, None),
    ("scheme", "check_serial", True, None),
    ("scheme", "forge", True, None),
    ("scheme", "mint", True, _Draws()),
    ("forgery", "oracle_predicate", True, _Oracle()),
    ("forgery", "F", True, _Probes()),
    ("forgery", "G", False, None),
    ("forgery", "batch_marked", True, _Sweep()),
    ("divpoly", "eval_division_poly", False, _EvalBits()),
    ("divpoly", "BatchAmbient.__init__", True, _Lanes()),
    ("divpoly", "BatchAmbient.eval", True, None),
    ("curves", "get_weierstrass_pair", False, None),
    ("curves", "count_points_batch", True, _Cells()),
    ("curves", "group_structure", False, None),
    ("curves", "build_curve_table", True, None),
    ("curves", "enumerate_classes", True, None),
    ("grover", "plan_iterations", True, None),
    ("grover", "run_search", True, _Grover()),
    ("classnum", "class_number_report", True, None),
    ("classnum", "exact_class_number", True, None),
    ("classnum", "frobenius_discriminant", False, None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target, rebinding each name that refers to it in any
    module of the package (so `from .divpoly import eval_division_poly`
    sees the wrapper too).  A target the program no longer has is noted in
    tracer.missing and its metrics read 0."""
    from twistforge.fp_arith import MultCounter

    modules = [m for n, m in sys.modules.items()
               if m is not None and n.startswith("twistforge")]
    for mod_name, attr, stored, hook in TARGETS:
        owner = sys.modules.get(f"twistforge.{mod_name}")
        if owner is None:  # not imported by this workload
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if not callable(fn):
            tracer.missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = _wrap(tracer, fn, f"{mod_name}.{attr}", stored, hook, MultCounter)
        if path:
            setattr(owner, leaf, wrapped)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapped)
