"""Spans around the public functions of each whitlocal layer.

The tracer lives entirely in the benchmark: ``install`` replaces each
public function (and each public or arithmetic method of the classes
listed in ``CLASSES``) with a wrapper, everywhere it is bound: the module
attribute, every ``from .x import y`` copy in another module, and the
values of module-level dicts such as ``suites.SUITES``; ``uninstall`` puts
the originals back.

Each thread keeps its own span stack, because ``verify`` runs its suites
on a thread pool even at ``--jobs 1``.  A span's self time is its duration
minus the time of its child spans in the same thread; inclusive time is
counted only for the outermost span of a name, layer or group, so
recursion and nesting within a layer are not counted twice.  Spans are
aggregated as they close; only suite spans are kept whole.
"""

from __future__ import annotations

import inspect
import threading
import types
from time import perf_counter

LAYERS = ("exactalg", "symfunc", "localrep", "whittaker", "zeta",
          "reciprocity", "report", "suites", "cli")

# classes whose methods are layer entry points; value types such as
# Monomial or Partition are only ever used inside a traced call
CLASSES = {
    "exactalg": ("LaurentPoly", "RationalFunction", "TruncatedSeries"),
    "reciprocity": ("SymbolicMatrix",),
}
DUNDERS = frozenset(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__neg__", "__pow__", "__truediv__", "__eq__"))

# spans of several functions whose outermost inclusive time is reported together
GROUPS = {"to_text": "exactalg.to_text", "report_to_json": "report.emit",
          "report_to_csv": "report.emit", "report_to_text": "report.emit"}

LAURENT_MUL = "exactalg.LaurentPoly.__mul__"
SCHUR = "symfunc.schur"


def _assign(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


class _ThreadState:
    __slots__ = ("stack", "depth", "calls", "incl", "self_s", "counts", "peak_terms", "spans")

    def __init__(self):
        self.stack: list[list] = []  # frames: [child seconds, layer, name]
        self.depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.peak_terms = 0
        self.spans: list[tuple] = []  # (name, parent, start, end) of suite spans


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.suite_names: dict[str, str] = {}  # span name -> suite key
        self.t_origin = perf_counter()
        self._plan: list[tuple] | None = None

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, name: str, layer: str, group: str | None = None,
             after=None, keep: bool = False):
        keys = (name, layer) if group is None else (name, layer, group)
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            depth = st.depth
            outer = [k for k in keys if not depth.get(k)]
            for k in keys:
                depth[k] = depth.get(k, 0) + 1
            stack = st.stack
            parent = stack[-1][2] if stack else None
            frame = [0.0, layer, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                for k in keys:
                    depth[k] -= 1
                if stack:
                    stack[-1][0] += dur
                st.calls[name] = st.calls.get(name, 0) + 1
                incl = st.incl
                for k in outer:
                    incl[k] = incl.get(k, 0.0) + dur
                st.self_s[layer] = st.self_s.get(layer, 0.0) + dur - frame[0]
                if keep:
                    st.spans.append((name, parent, t0, t1))
            if after is not None:
                after(st, args, result)
            return result

        return wrapper

    def counting_lattice(self, gen_fn):
        """Count the partitions a zeta frame draws from a generator."""
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            for item in gen_fn(*args, **kwargs):
                if st.stack and st.stack[-1][1] == "zeta":
                    st.counts["zeta.lattice_points"] = st.counts.get("zeta.lattice_points", 0) + 1
                yield item

        return wrapper

    @staticmethod
    def _after_laurent_mul(st: _ThreadState, args, result) -> None:
        if result is NotImplemented:
            return
        a, b = args
        nb = len(b.terms) if hasattr(b, "terms") else (1 if b else 0)
        products = len(a.terms) * nb
        out = len(result.terms)
        counts = st.counts
        counts["exactalg.term_products"] = counts.get("exactalg.term_products", 0) + products
        counts["exactalg.terms_out"] = counts.get("exactalg.terms_out", 0) + out
        if st.depth.get(SCHUR):
            counts["symfunc.schur_term_products"] = (
                counts.get("symfunc.schur_term_products", 0) + products)
        if out > st.peak_terms:
            st.peak_terms = out

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; the first call builds them."""
        if self._plan is None:
            self._plan = self._build_plan()
        for target, key, _, wrapper in self._plan:
            _assign(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._plan or ():
            _assign(target, key, original)

    def _build_plan(self) -> list[tuple]:
        """(target, key, original, wrapper) for every binding to replace."""
        import sys

        import whitlocal.cli  # noqa: F401 - with the package, loads every layer

        from whitlocal import suites

        modules = {layer: sys.modules[f"whitlocal.{layer}"] for layer in LAYERS}
        suite_fns = {fn: key for key, fn in suites.SUITES.items()}
        suite_fns.update({fn: key for key, fn in suites.HIDDEN_SUITES.items()})
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        plan = []

        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not isinstance(obj, types.FunctionType) or attr.startswith("_")
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    if attr == "partitions_of":
                        replaced[id(obj)] = (obj, self.counting_lattice(obj))
                    continue
                keep = obj in suite_fns
                if keep:
                    self.suite_names[name] = suite_fns[obj]
                replaced[id(obj)] = (obj, self.span(obj, name, layer, GROUPS.get(attr), keep=keep))
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                methods = {attr: obj for attr, obj in vars(cls).items()
                           if isinstance(obj, types.FunctionType)}
                wrapped: dict[int, object] = {}
                for attr, obj in methods.items():
                    if (not attr.startswith("_") or attr in DUNDERS) and id(obj) not in wrapped:
                        name = f"{layer}.{cls_name}.{obj.__name__}"
                        after = self._after_laurent_mul if name == LAURENT_MUL else None
                        wrapped[id(obj)] = self.span(obj, name, layer,
                                                     GROUPS.get(obj.__name__), after)
                # aliases such as __rmul__ = __mul__ or __str__ = to_text share one span
                plan += [(cls, attr, obj, wrapped[id(obj)]) for attr, obj in methods.items()
                         if id(obj) in wrapped]

        def swap(obj):
            original, wrapper = replaced.get(id(obj), (None, None))
            return wrapper if original is obj else None

        for mod_name, mod in sys.modules.items():
            if mod is None or not (mod_name == "whitlocal" or mod_name.startswith("whitlocal.")):
                continue
            for attr, obj in vars(mod).items():
                if swap(obj) is not None:
                    plan.append((mod, attr, obj, swap(obj)))
                elif isinstance(obj, dict):
                    plan += [(obj, key, value, swap(value)) for key, value in obj.items()
                             if swap(value) is not None]
        return plan

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, int] = {}
        peak = 0
        spans = []
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for src, dst in ((st.calls, calls), (st.incl, incl),
                             (st.self_s, self_s), (st.counts, counts)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
            peak = max(peak, st.peak_terms)
            spans.extend(st.spans)
        return {"calls": calls, "incl": incl, "self": self_s, "counts": counts,
                "peak_terms": peak, "spans": spans}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        t = self.totals()
        calls, incl, self_s, counts = t["calls"], t["incl"], t["self"], t["counts"]
        products = counts.get("exactalg.term_products", 0)

        def per_product(x: float) -> float:
            return x / products if products else 0.0

        m = {
            "exactalg.self_s": self_s.get("exactalg", 0.0),
            "exactalg.laurent_mul_calls": calls.get(LAURENT_MUL, 0),
            "exactalg.term_products": products,
            "exactalg.collect_ratio": per_product(counts.get("exactalg.terms_out", 0)),
            "exactalg.peak_terms": t["peak_terms"],
            "exactalg.ns_per_term_product": per_product(incl.get(LAURENT_MUL, 0.0) * 1e9),
            "exactalg.series_mul_calls": calls.get("exactalg.TruncatedSeries.__mul__", 0),
            "exactalg.to_text_s": incl.get("exactalg.to_text", 0.0),
            "symfunc.self_s": self_s.get("symfunc", 0.0),
            "symfunc.schur_calls": calls.get(SCHUR, 0),
            "symfunc.schur_incl_s": incl.get(SCHUR, 0.0),
            "symfunc.schur_term_products": counts.get("symfunc.schur_term_products", 0),
            "whittaker.incl_s": incl.get("whittaker", 0.0),
            "whittaker.spherical_value_calls": calls.get("whittaker.spherical_value", 0),
            "zeta.incl_s": incl.get("zeta", 0.0),
            "zeta.lattice_points": counts.get("zeta.lattice_points", 0),
            "localrep.self_s": self_s.get("localrep", 0.0),
            "localrep.bruteforce_incl_s": incl.get("localrep.congruence_index_bruteforce", 0.0),
            "localrep.charsum_calls": calls.get("localrep.character_sum", 0),
            "reciprocity.self_s": self_s.get("reciprocity", 0.0),
            "reciprocity.matrix_mul_calls": calls.get("reciprocity.SymbolicMatrix.__mul__", 0),
        }
        from whitlocal.suites import SUITES

        by_key = {key: 0.0 for key in SUITES}
        for span_name, key in self.suite_names.items():
            if key in by_key:
                by_key[key] = incl.get(span_name, 0.0)
        m.update({f"suites.{key}_s": s for key, s in by_key.items()})
        m["report.emit_s"] = incl.get("report.emit", 0.0)
        m["report.run_check_calls"] = calls.get("report.run_check", 0)
        m["cli.critical_suite_s"] = max((end - start for _, _, start, end in t["spans"]),
                                        default=0.0)
        return m
