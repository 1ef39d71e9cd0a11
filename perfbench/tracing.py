"""Span tracing around the public functions of each teleportlab module.

The tracer wraps functions from outside the package: every module attribute
bound to a listed function (including copies bound by ``from .x import y``
in other modules) is replaced by a wrapper, and listed methods are replaced
on their class.  Spans are kept in flat in-memory arrays and written out
once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

# Layer name -> public functions traced in it.  ``Class.method`` entries are
# wrapped on the class.  Metric names are ``<layer>.<function>.self_ms`` and
# ``<layer>.<function>.calls``.
LAYERS = {
    "qmath": ("embed_operator", "factor_permutation", "partial_trace"),
    "channels": ("apply_on_factor", "choi", "ChoiMatrix.from_matrix"),
    "teleport": ("teleport", "teleport_detailed", "correction_unitary",
                 "bell_basis"),
    "protocol": ("ResourceProtocol.check_determinism", "target_overlap",
                 "lambda_operators", "block_operators", "apply_protocol",
                 "effective_choi", "control_map", "load_protocol"),
    "theorem": ("proof_report",),
    "optimize": ("optimize", "decode", "vec_to_hermitian",
                 "unitary_from_generator"),
}

# Spans opened by the benchmark itself rather than by a wrapper.
OP_SPAN = "op"
# Deterministic counts gathered at the same wrappers as the spans.
COUNTERS = ("qmath.embed_operator.bytes", "optimize.evals",
            "optimize.accepted", "optimize.iterations")
CLI_COMMANDS = ("channel-info", "teleport", "protocol-verify-qt3",
                "protocol-verify-qt2", "optimize")


def traced_names() -> list:
    """Every span name a run can produce, in a fixed order."""
    names = [OP_SPAN]
    for layer, funcs in LAYERS.items():
        names += [f"{layer}.{f}" for f in funcs]
    names += [f"cli.{c}" for c in CLI_COMMANDS]
    return names


class Tracer:
    """Nested spans of one thread; each span records its parent and op id."""

    def __init__(self):
        self.names = traced_names()
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.current_op = -1
        self.active = False
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patches = []

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an op, a cli command)."""
        idx = self.open(self.ids[name])
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, qualname: str, fn):
        name_id = self.ids[qualname]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        counters = self.counters
        if qualname == "qmath.embed_operator":
            def traced_embed(op, dims, targets):
                if tracer.active:
                    total = 1
                    for d in dims:
                        total *= int(d)
                    # bytes of the dense complex128 output, computed from dims
                    counters["qmath.embed_operator.bytes"] += 16 * total * total
                return traced(op, dims, targets)
            return traced_embed
        if qualname == "optimize.optimize":
            def traced_optimize(*args, **kwargs):
                result = traced(*args, **kwargs)
                if tracer.active:
                    counters["optimize.evals"] += result.evaluations_used
                    for trace in result.restart_traces:
                        # one trace entry per SPSA iteration after the first
                        counters["optimize.iterations"] += len(trace) - 1
                        counters["optimize.accepted"] += sum(
                            b > a for a, b in zip(trace, trace[1:]))
                return result
            return traced_optimize
        return traced

    def install(self) -> None:
        """Replace every listed function and method by its traced wrapper."""
        import teleportlab  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "teleportlab"
                                         or k.startswith("teleportlab."))]
        for layer, funcs in LAYERS.items():
            mod = sys.modules[f"teleportlab.{layer}"]
            for func in funcs:
                qualname = f"{layer}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(qualname, raw.__func__))
                    else:
                        new = self._wrap(qualname, raw)
                    setattr(cls, meth, new)
                    self._patches.append((cls, meth, raw))
                    continue
                orig = getattr(mod, func)
                new = self._wrap(qualname, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, new)
                            self._patches.append((m, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def arrays(self):
        """Spans as numpy arrays: name, start_ns, end_ns, parent, op."""
        import numpy as np

        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32))

    def summary(self):
        """Self time (ns) and call count per name, plus each span's name and
        duration (ns).

        Self time is a span's duration minus the durations of its direct
        children, which never overlap each other in a single thread.
        """
        import numpy as np

        name, start, end, parent, _ = self.arrays()
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = dur - cover
        k = len(self.names)
        return (np.bincount(name, weights=self_ns, minlength=k),
                np.bincount(name, minlength=k),
                name, dur)

    def save(self, path) -> None:
        import numpy as np

        name, start, end, parent, op = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start_ns=start,
                 end_ns=end, parent=parent, op=op)
