"""Spans around the calls one polarnewton module makes into another.

A probe replaces a callee's name in the *calling* module's namespace, so
`verify.substitute` is wrapped but `curves.substitute` is not: each span sits
where the caller enters the layer.  Probes record a span (name, parent,
start, end), re-raise every exception after counting it, and are removed
again when the `installed` block ends.  Span times come from
speed.work_clock(), so speed samples taken inside a span are not counted in
it.  Nothing in `src/` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import sys

from speed import work_clock

# (calling module, attribute, span name).  Class attributes are given as
# "Class.method".  A name the source no longer has is reported as missing and
# its metrics read 0; the run itself goes on.
PROBES = (
    ("verify", "sample_off_locus", "verify.sample_off_locus"),
    ("verify", "substitute", "curves.substitute"),
    ("verify", "polar", "curves.polar"),
    ("verify", "newton_polygon", "newton.newton_polygon"),
    ("verify", "associated_polynomial", "newton.associated_polynomial"),
    ("verify", "squarefree_info", "algebra.squarefree_info"),
    ("verify", "oka_report", "newton.oka_report"),
    ("verify", "is_nondegenerate", "newton.is_nondegenerate"),
    ("verify", "puiseux_expand", "puiseux.puiseux_expand"),
    ("verify", "intersection_numeric", "puiseux.intersection_numeric"),
    ("verify", "polar_model_g1", "genus1.polar_model_g1"),
    ("verify", "polar_model_g2", "genus2.polar_model_g2"),
    ("newton", "squarefree_info", "algebra.squarefree_info"),
    ("genus1", "continued_fraction", "cfrac.continued_fraction"),
    ("genus1", "discriminant", "algebra.discriminant"),
    ("genus1", "build_locus", "genus1.build_locus"),
    ("genus1", "strip_content", "algebra.strip_content"),
    ("genus1", "squarefree_split", "algebra.squarefree_split"),
    ("genus1", "DegeneracyLocus.vanishes_at", "genus1.DegeneracyLocus.vanishes_at"),
    ("genus2", "polar_model_g1", "genus1.polar_model_g1"),
    ("genus2", "discriminant", "algebra.discriminant"),
    ("genus2", "build_locus", "genus1.build_locus"),
)


class Tracer:
    """Spans kept in memory; `spans` holds [name, parent index, start, end, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            span = [name, open_[-1] if open_ else None, work_clock(), None, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = work_clock()
                open_.pop()

        return probe

    @contextlib.contextmanager
    def installed(self):
        """Install every probe of PROBES whose target exists; restore on exit."""
        restore = []
        try:
            for module, attr, name in PROBES:
                owner = sys.modules[f"polarnewton.{module}"]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, leaf):
                    if f"{module}.{attr}" not in self.missing:
                        self.missing.append(f"{module}.{attr}")
                    continue
                original = getattr(owner, leaf)
                restore.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(original, name))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s (total minus child spans), errors."""
    out: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _err in spans:
        if parent is not None:
            child_time[parent] += end - start
    for k, (name, _parent, start, end, err) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_time[k]
        agg["errors"] += err is not None
    return out
