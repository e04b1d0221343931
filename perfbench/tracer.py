"""Per-layer spans recorded from outside the library.

The traced run replaces every public function named in TARGETS with a
wrapper that records a span (op, parent span, name, start, end, amount) in
memory.  The wrapper is installed on every binding of the function inside
the frozen_spectra package, so a call that reaches it through a name
imported into another module (cli.eigenvalues, chebyshev.matmul, ...) is
traced too.  Nothing in the library is edited; uninstall() restores the
original bindings.

Spans are aggregated only at the end: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# Traced functions per module; "Class.method" names a method.
TARGETS = {
    "characteristic": (
        "eigenvalues",
        "delta_direct",
        "delta_from_spectrum",
        "extract_w",
        "Spectrum.dump",
        "Spectrum.load",
    ),
    "inverse_pipeline": ("invert_from_spectrum",),
    "main_equation": ("forward_w_direct", "forward_w_matrix", "solve_inverse"),
    "frozen_matrix": (
        "build_matrix",
        "reduce_to_j1",
        "det_exact",
        "rank",
        "kernel",
        "char_poly_j1",
        "theorem1_poly",
        "numeric_spectrum_j1",
        "eigvec_j1",
    ),
    "chebyshev": ("matrix_poly_eval",),
    "intlinalg": ("matmul", "bareiss_det", "bareiss_rank"),
    "interval_ops": ("read_csv", "write_csv"),
}

# Positional index of the file path of the I/O functions; the span's amount
# is the file size in bytes after the call.
PATH_ARG = {
    "interval_ops.read_csv": 0,
    "interval_ops.write_csv": 1,
    "characteristic.Spectrum.dump": 1,  # (self, path)
    "characteristic.Spectrum.load": 0,
}
# Positional index of a size argument recorded as the span's amount:
# product factors per delta_from_spectrum call, eigenvalues asked of
# eigenvalues().
SIZE_ARG = {
    "characteristic.delta_from_spectrum": 1,
    "characteristic.eigenvalues": 2,
}

ROOT_SPAN = "cli"
PACKAGE = "frozen_spectra"


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"{ROOT_SPAN}.self_s"]
    for name in span_names():
        names += [f"{name}.calls", f"{name}.self_s"]
        if name in PATH_ARG:
            names.append(f"{name}.bytes")
    names += [
        "characteristic.delta_direct.calls_per_eigenvalue",
        "characteristic.delta_from_spectrum.factors",
    ]
    return names


class Tracer:
    def __init__(self):
        # [op, parent index or -1, name, start, end, amount]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, parent, name, time.perf_counter(), 0.0, 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, end: float, amount: int = 0) -> None:
        rec = self.spans[sid]
        rec[4] = end
        rec[5] = amount
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, op: int):
        """Span of one CLI command; every traced call inside is its descendant."""
        self.op = op
        sid = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(sid, time.perf_counter())

    def _wrap(self, name: str, fn):
        path_arg = PATH_ARG.get(name)
        size_arg = SIZE_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                amount = 0
                if path_arg is not None and len(args) > path_arg:
                    with contextlib.suppress(OSError):  # the call may have failed to write
                        amount = os.path.getsize(args[path_arg])
                elif size_arg is not None and len(args) > size_arg:
                    amount = int(args[size_arg])
                self._close(sid, end, amount)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, fns in TARGETS.items():
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        patched = staticmethod(self._wrap(name, raw.__func__))
                    else:
                        patched = self._wrap(name, raw)
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, patched)
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def layer_stats(self, ops: set[int], scale: dict[int, float]) -> dict[str, dict]:
        """calls, self time and amount per span name, over the spans of `ops`.

        Self times are multiplied by the op's entry in `scale`.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[4] - rec[3]
        stats: dict[str, dict] = {}
        for sid, (op, _, name, start, end, amount) in enumerate(self.spans):
            if op not in ops:
                continue
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "amount": 0})
            s["calls"] += 1
            s["self_s"] += ((end - start) - child[sid]) * scale[op]
            s["amount"] += amount
        return stats


def layer_metrics(stats: dict[str, dict]) -> tuple[dict, dict]:
    """Layer metrics of one cycle, split into (deterministic counts, times)."""
    counts: dict[str, int | float] = {}
    times: dict[str, float] = {}
    empty = {"calls": 0, "self_s": 0.0, "amount": 0}
    times[f"{ROOT_SPAN}.self_s"] = stats.get(ROOT_SPAN, empty)["self_s"]
    for name in span_names():
        s = stats.get(name, empty)
        counts[f"{name}.calls"] = s["calls"]
        times[f"{name}.self_s"] = s["self_s"]
        if name in PATH_ARG:
            counts[f"{name}.bytes"] = s["amount"]
    dd = stats.get("characteristic.delta_direct", empty)["calls"]
    eigs = stats.get("characteristic.eigenvalues", empty)["amount"]
    counts["characteristic.delta_direct.calls_per_eigenvalue"] = dd / eigs if eigs else 0.0
    counts["characteristic.delta_from_spectrum.factors"] = stats.get(
        "characteristic.delta_from_spectrum", empty
    )["amount"]
    return counts, times
