"""In-memory span recorder that wraps the package's public functions.

Spans are recorded from the benchmark, not from inside the program: each
traced function is replaced, in the module namespace its callers look it
up in, by a wrapper that records ``(name, start, end, parent, attrs)``.
The program's arithmetic is untouched, so a traced run must produce
bit-identical couplings to an untraced one.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn, describe=None):
        """``fn`` wrapped in a span; ``describe(result, args)`` returns
        attributes to attach to the span."""

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if describe is not None:
                    rec["attrs"].update(describe(result, args))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (busy) seconds, self seconds
        (duration minus the time its child spans cover) and the sum of each
        numeric span attribute."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict[str, float]] = {}
        for idx, rec in enumerate(self.spans):
            agg = out.setdefault(rec["name"], {"count": 0, "busy_s": 0.0, "self_s": 0.0})
            dur = rec["end"] - rec["start"]
            agg["count"] += 1
            agg["busy_s"] += dur
            agg["self_s"] += dur - child_time[idx]
            for key, val in rec["attrs"].items():
                agg[key] = agg.get(key, 0) + val
        return out

    def dump(self) -> list[dict]:
        """Spans with times relative to the first span, for writing out."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{"name": r["name"], "start": r["start"] - t0, "end": r["end"] - t0,
                 "parent": r["parent"], **r["attrs"]} for r in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions where their callers look them up.

    The library pipeline calls through the ``cascade_recon`` package, the
    CLI through ``cascade_recon.cli`` and ``dmprec_fit`` through
    ``cascade_recon.fit``; every name is patched in each of those
    namespaces that binds it.
    """
    import cascade_recon
    from cascade_recon import cli, fit

    def nbytes(result, _args):
        return {"nbytes": int(sum(a.nbytes for obj in result for a in vars(obj).values()
                                  if isinstance(a, np.ndarray)))}

    def summary(result, _args):
        return {"groups": len(result), "windows": int(sum(s.nodes.size for s in result))}

    def described(name, describe=None):
        return lambda fn: tracer.wrap(name, fn, describe)

    plan = {
        "parse_edge_list": described("graph.parse"),
        "generate_dataset": described("cascades.simulate", lambda r, a: {"n": len(r)}),
        "apply_mask": described("cascades.mask"),
        "write_cascades": described("cascades.write", lambda r, a: {"n": len(a[1])}),
        "read_cascades": described("cascades.read", lambda r, a: {"n": len(r)}),
        "dmprec_fit": described("fit.dmprec_fit"),
        "summarize_dataset": described("gradient.summarize", summary),
        "dmp_forward_with_gradients": described("gradient.sens", nbytes),
        "dmp_forward": described("dmp.forward"),
    }
    wrappers = {}
    for module in (cascade_recon, cli, fit):
        for attr, make in plan.items():
            if hasattr(module, attr):
                original = getattr(module, attr)
                if original not in wrappers:
                    wrappers[original] = make(original)
                tracer.patch(module, attr, wrappers[original])

    # the optimizer gets spans around the two objective callables it is
    # handed, and its span carries the outcome
    original_pgd = fit.projected_gradient_descent

    def traced_pgd(value_and_grad, value_only, *args, **kwargs):
        with tracer.span("fit.pgd") as rec:
            result = original_pgd(tracer.wrap("fit.grad_eval", value_and_grad),
                                  tracer.wrap("fit.value_eval", value_only), *args, **kwargs)
            _x, trajectory, _diag, converged, iterations = result
            rec["attrs"].update(iterations=iterations, converged=bool(converged),
                                accepted=len(trajectory) - 1,
                                final_free_energy=float(trajectory[-1]))
            return result

    tracer.patch(fit, "projected_gradient_descent", traced_pgd)
