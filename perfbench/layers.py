"""Outside-in layer tracing of oortlab.

Nothing inside ``src/`` is changed.  While a :class:`Tracer` is installed,
each traced function is replaced by a wrapper that counts its calls and
measures its self time: its duration minus the time of traced calls made
inside it.  Every binding of the function is replaced, including the
copies other modules made with ``from ... import``.  ``Perm`` products and
inversions are counted, not timed.  Everything is restored on exit.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

# (metric prefix, module under oortlab, attribute path)
SPANS = [
    ("construct.build_group", "construct", "build_group"),
    ("perm.StabilizerChain", "perm", "StabilizerChain.__init__"),
    ("perm.Group.element_list", "perm", "Group.element_list"),
    ("perm.Group.from_element_set", "perm", "Group.from_element_set"),
    ("perm.mulclose", "perm", "mulclose"),
    ("perm.quotient_by", "perm", "quotient_by"),
    *(
        (f"analysis.{fn}", "analysis", fn)
        for fn in (
            "sylow",
            "normalizer",
            "centralizer",
            "o_pi",
            "normal_closure",
            "conjugacy_class",
            "subgroups_of_p_group",
            "chief_series_within",
            "derived_subgroup",
            "minimal_normal_subgroups",
        )
    ),
    ("classify.class_reps", "classify", "_sylow_subgroup_classes"),
    ("classify.stream", "classify", "_cyclic_by_p_stream"),
    *(
        (f"classify.{fn}", "classify", fn)
        for fn in (
            "shape_of",
            "is_o_group_by_definition",
            "is_o_group_by_criterion",
            "odd_structure_report",
            "even_structure_report",
            "theorem_audit",
        )
    ),
    ("cli.main", "cli", "main"),
]

# Counts beside the spans: (metric name, unit).
COUNTS = [
    ("perm.products", "count"),
    ("perm.inversions", "count"),
    ("perm.elements_materialized", "count"),
    ("classify.class_reps.kept_ratio", "ratio"),
    ("classify.stream.candidates", "count"),
    ("trace.overhead_frac", "frac"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix, _, _ in SPANS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    units.update(COUNTS)
    return units


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: Counter[str] = Counter()  # open spans per name
        self._materialized: weakref.WeakSet = weakref.WeakSet()
        self._mul_count = [0]
        self._inv_count = [0]

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        children = [0.0]
        self._stack.append(children)
        self._open[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._open[name] -= 1
            self.self_s[name] += dt - children[0]
            if not self._open[name]:
                self.total_s[name] += dt
            if self._stack:
                self._stack[-1][0] += dt

    def _plain(self, name, orig):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self._span(name, orig, args, kwargs)

        return wrapper

    def _element_list(self, name, orig):
        def wrapper(group, *args, **kwargs):
            self.calls[name] += 1
            els = self._span(name, orig, (group, *args), kwargs)
            if group not in self._materialized:
                self._materialized.add(group)
                self.counts["perm.elements_materialized"] += len(els)
            return els

        return wrapper

    def _from_element_set(self, name, orig):
        def wrapper(cls, degree, els, *args, **kwargs):
            self.calls[name] += 1
            if not hasattr(els, "__len__"):
                els = list(els)
            group = self._span(name, orig, (cls, degree, els, *args), kwargs)
            self.counts["perm.elements_materialized"] += len(els)
            self._materialized.add(group)
            return group

        return wrapper

    def _class_reps(self, name, orig):
        def wrapper(G, p, *args, **kwargs):
            self.calls[name] += 1
            listed = self.counts["subgroups_listed"]
            P, reps = self._span(name, orig, (G, p, *args), kwargs)
            self.counts["class_reps.reps"] += len(reps)
            self.counts["class_reps.subgroups"] += (
                1 if P.is_trivial() else self.counts["subgroups_listed"] - listed
            )
            return P, reps

        return wrapper

    def _subgroups_of_p_group(self, name, orig):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            subs = self._span(name, orig, args, kwargs)
            self.counts["subgroups_listed"] += len(subs)
            return subs

        return wrapper

    def _stream(self, name, orig):
        """The stream is a generator: each resume is timed as one span."""

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            gen = orig(*args, **kwargs)
            while True:
                try:
                    item = self._span(name, next, (gen,), {})
                except StopIteration:
                    return
                self.counts["classify.stream.candidates"] += 1
                yield item

        return wrapper

    def _counted(self, box, orig):
        def wrapper(*args):
            box[0] += 1
            return orig(*args)

        return wrapper

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Install every wrapper, yield, then restore the originals."""
        undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n == "oortlab" or n.startswith("oortlab.")]
        special = {
            "perm.Group.element_list": self._element_list,
            "perm.Group.from_element_set": self._from_element_set,
            "classify.class_reps": self._class_reps,
            "classify.stream": self._stream,
            "analysis.subgroups_of_p_group": self._subgroups_of_p_group,
        }
        try:
            for name, modname, path in SPANS:
                owner = sys.modules[f"oortlab.{modname}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                make = special.get(name, self._plain)
                if cls_path:
                    if isinstance(raw, classmethod):
                        new = classmethod(make(name, raw.__func__))
                    else:
                        new = make(name, raw)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                new = make(name, raw)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            undo.append((mod, key, raw))
                            setattr(mod, key, new)
            Perm = sys.modules["oortlab.perm"].Perm
            for attr, box in (("__mul__", self._mul_count), ("inv", self._inv_count)):
                raw = Perm.__dict__[attr]
                undo.append((Perm, attr, raw))
                setattr(Perm, attr, self._counted(box, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- report -----------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix, _, _ in SPANS:
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.self_s"] = self.self_s[prefix]
        subs = self.counts["class_reps.subgroups"]
        out.update(
            {
                "perm.products": self._mul_count[0],
                "perm.inversions": self._inv_count[0],
                "perm.elements_materialized": self.counts["perm.elements_materialized"],
                "classify.class_reps.kept_ratio": self.counts["class_reps.reps"] / subs if subs else 0.0,
                "classify.stream.candidates": self.counts["classify.stream.candidates"],
                "trace.overhead_frac": overhead_frac,
            }
        )
        return out
