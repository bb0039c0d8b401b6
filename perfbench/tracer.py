"""Traced-run recorder: wraps public quasifix functions from outside.

`Tracer.install()` replaces each wrapped name in every `quasifix` module
namespace that holds it (a function imported elsewhere, such as
`pgl_dynamics_step` in both `matrep` and `certify`, is patched in each
place), and class attributes for methods.  Spans live in memory:

- whole-call spans (`record=True`) keep a record with their parent span and
  job id, written out when the run ends;
- per-step spans (`record=False`) only add to their name's call count, total
  time and self time;
- gf element operations only count calls.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans plus the time outside every top-level span add
up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (layer, span name, "module:qualified.name", keep a record per call)
SPANS = (
    ("gf", "gf.field_create", "quasifix.gf:field_create", True),
    ("gf", "gf.min_subfield_degree", "quasifix.gf:min_subfield_degree", False),
    ("poly", "poly.evaluate", "quasifix.poly:MPoly.evaluate", False),
    ("poly", "poly.normal_form", "quasifix.poly:IqSystem.normal_form", False),
    ("poly", "poly.iterate", "quasifix.poly:PolyMap.iterate", True),
    ("poly", "poly.parse", "quasifix.poly:parse_poly", False),
    ("freegroup", "freegroup.injectivity", "quasifix.freegroup:endo_is_injective", True),
    ("freegroup", "freegroup.prime_selection",
     "quasifix.freegroup:nonscalar_sanity_check", True),
    ("matrep", "matrep.orbit", "quasifix.matrep:find_periodic_orbit", True),
    ("matrep", "matrep.step", "quasifix.matrep:pgl_dynamics_step", False),
    ("matrep", "matrep.pi_w", "quasifix.matrep:pi_w", False),
    ("dynamics", "dynamics.enumerate", "quasifix.dynamics:enumerate_quasi_fixed", True),
    ("dynamics", "dynamics.avoiding", "quasifix.dynamics:find_quasi_fixed_avoiding", True),
    ("certify", "certify.search", "quasifix.certify:search_certificate", True),
    ("certify", "certify.verify", "quasifix.certify:verify_certificate", True),
    ("certify", "certify.wreath", "quasifix.certify:build_wreath", True),
    ("certify", "certify.parse", "quasifix.certify:certificate_from_bytes", True),
    ("cli", "cli.main", "quasifix.cli:main", True),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in SPANS))

# (counter, "module:qualified.name")
COUNTERS = (
    ("gf.mul_calls", "quasifix.gf:FqElement.__mul__"),
    ("gf.add_calls", "quasifix.gf:FqElement.__add__"),
    ("gf.add_calls", "quasifix.gf:FqElement.__sub__"),
    ("gf.inv_calls", "quasifix.gf:FqElement.inv"),
    ("gf.frobenius_calls", "quasifix.gf:FqElement.frobenius"),
    ("freegroup.word_evaluate_calls", "quasifix.freegroup:word_evaluate"),
    ("freegroup.sanov_calls", "quasifix.freegroup:sanov_embed"),
)


def _resolve(target: str):
    """(owner, attribute, original) for 'module:name' or 'module:Class.name'."""
    module_name, qualname = target.split(":")
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []      # [start, child time, record id or None]
        self.records: list[tuple] = []   # (id, parent id, job, name, start, end, self)
        self.agg: dict[str, list[float]] = {}   # name -> [calls, total, self]
        self.counts: dict[str, float] = {}
        self.top_s = 0.0                 # time inside top-level spans
        self.job: int | None = None
        self._last_id = 0
        self._restore: list[tuple] = []

    # -- patching

    def install(self) -> None:
        for _layer, name, target, record in SPANS:
            hook = _HOOKS.get(name)
            if name == "dynamics.enumerate":
                self._patch(target, lambda fn, n=name: self._generator_span(n, fn))
            else:
                self._patch(target, lambda fn, n=name, r=record, h=hook:
                            self._span(n, fn, r, h))
        for key, target in COUNTERS:
            self.counts.setdefault(key, 0)
            hook = _HOOKS.get(key)
            self._patch(target, lambda fn, k=key, h=hook: self._counter(k, fn, h))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, target: str, make) -> None:
        owner, attr, original = _resolve(target)
        wrapped = make(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for module_name, module in list(sys.modules.items()):
            if module_name != "quasifix" and not module_name.startswith("quasifix."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)

    # -- span bookkeeping

    def _close(self, name: str, frame: list, record: bool) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame[0]
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        else:
            self.top_s += duration
        if record:
            parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            self.records.append((frame[2], parent, self.job, name, frame[0], end,
                                 duration - frame[1]))

    def _open(self, record: bool) -> list:
        frame = [perf_counter(), 0.0, None]
        if record:
            self._last_id += 1
            frame[2] = self._last_id
        self.stack.append(frame)
        return frame

    def _span(self, name: str, fn, record: bool, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, record)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result
        return wrapper

    def _generator_span(self, name: str, fn):
        """Span around each resumption of a generator; counts its scan on close."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            counts = tracer.counts
            counts["dynamics.enumerate_calls"] = counts.get("dynamics.enumerate_calls", 0) + 1

            def run():
                last_degree, exhausted = 0, False
                try:
                    while True:
                        frame = tracer._open(True)
                        try:
                            item = next(inner)
                        except StopIteration:
                            exhausted = True
                            return
                        finally:
                            tracer._close(name, frame, True)
                        counts["dynamics.witnesses"] = counts.get("dynamics.witnesses", 0) + 1
                        last_degree = item.field_degree
                        yield item
                finally:
                    pmap = args[0]
                    s_max = args[1] if len(args) > 1 else kwargs["s_max"]
                    levels = s_max if exhausted else last_degree
                    counts["dynamics.points_scanned"] = counts.get(
                        "dynamics.points_scanned", 0) + sum(
                        pmap.p ** (t * pmap.nvars) for t in range(1, levels + 1))
            return run()
        return wrapper

    def _counter(self, key: str, fn, hook):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if hook is not None:
                hook(counts, args, None)
            return fn(*args, **kwargs)
        return wrapper


def _bump(counts: dict, key: str, amount) -> None:
    counts[key] = counts.get(key, 0) + amount


# extra counts taken from a wrapped call's arguments or result
_HOOKS = {
    "matrep.orbit": lambda c, args, r: (_bump(c, "matrep.orbit_found", int(r.found)),
                                        _bump(c, "matrep.orbit_steps", r.steps)),
    "poly.normal_form": lambda c, args, r: _bump(c, "poly.normal_form_terms_out",
                                                 len(r.terms)),
    "certify.search": lambda c, args, r: _bump(c, "certify.search_found", int(r.found)),
    # sanov_embed receives phi^(4k)(w) during prime selection
    "freegroup.sanov_calls": lambda c, args, r: _bump(
        c, "freegroup.prime_selection_letters", len(args[0])),
}
