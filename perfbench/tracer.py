"""Span tracer that wraps tilegate's public functions from outside.

Nothing in ``src/`` is edited: :meth:`Tracer.install` replaces each traced
function by a timing wrapper in every tilegate namespace that holds it
(``tilegate.tiling.orientation``, ``tilegate.cli.verify``, ...), and in the
class for methods, and :meth:`Tracer.uninstall` puts the originals back.

Two kinds of span are kept in memory:

* full spans, one record per call (name, start, end, parent, op id, self
  time, attributes), for the coarse layer boundaries: one benchmark op,
  ``cli.main``, load/save/gen/verify, the classifier and the lemma audits;
* aggregated leaves, for the hot calls (``orientation``, ``__mul__``, ...),
  summed per (nearest full span, name, parent name), so a traced run of
  millions of calls stays small.

Self time is a span's duration minus the time its direct child spans cover.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

_clock = time.perf_counter

# frame layout on the stack
_NAME, _START, _CHILD, _SPAN, _FLAGS = range(5)

# frame flags
_SAW_SIGN = 1          # an orientation call fell back to exact sign()
_SAW_ORIENTATION = 2   # a disjointness test reached the orientation predicate

# aggregated-leaf record layout
_CALLS, _TOTAL, _SELF, _X1, _X2 = range(5)

FULL = "full"
LEAF = "leaf"


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [id, name, start, end, parent, op, self_s, attrs]
        self.agg: dict[tuple, list] = {}
        self.stack: list[list] = []
        self.op_id: "int | None" = None
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str, full: bool) -> list:
        frame = [name, 0.0, 0.0, None, 0]
        if full:
            stack = self.stack
            parent = stack[-1][_SPAN] if stack else None
            span_id = len(self.spans)
            self.spans.append([span_id, name, 0.0, 0.0, parent, self.op_id, 0.0, None])
            frame[_SPAN] = span_id
        elif self.stack:
            frame[_SPAN] = self.stack[-1][_SPAN]
        self.stack.append(frame)
        frame[_START] = _clock()
        return frame

    def _exit(self, frame: list, full: bool) -> "list | None":
        end = _clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[_START]
        self_s = duration - frame[_CHILD]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[_CHILD] += duration
        if full:
            span = self.spans[frame[_SPAN]]
            span[2], span[3], span[6] = frame[_START], end, self_s
            return span
        key = (frame[_SPAN], frame[_NAME], parent[_NAME] if parent is not None else None)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0, 0, 0]
        rec[_CALLS] += 1
        rec[_TOTAL] += duration
        rec[_SELF] += self_s
        return rec

    @contextmanager
    def op(self, op_id: int, label: str):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        frame = self._enter("op." + label, True)
        try:
            yield
        finally:
            self._exit(frame, True)
            self.op_id = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, kind, on_exit=None, name_of=None):
        full = kind == FULL
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name_of(args, kwargs) if name_of else name, full)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec = exit_(frame, full)
                if on_exit is not None and ok:
                    on_exit(self, frame, rec, args, result)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name, kind, **hooks) -> None:
        wrapper = self._wrap(fn, name, kind, **hooks)
        for mod in _tilegate_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name, kind, **hooks) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, kind, **hooks)))
        else:
            self._patch(cls, attr, self._wrap(raw, name, kind, **hooks))

    def install(self) -> None:
        """Wrap the public entry points of every tilegate layer."""
        from tilegate import classify, cli, exact, geometry, tiling, vertex

        cr = exact.CycloReal
        for attr in ("__mul__", "__rmul__"):
            self._patch_method(cr, attr, "exact.mul", LEAF)
        for attr in ("__add__", "__radd__"):
            self._patch_method(cr, attr, "exact.add", LEAF)
        for attr in ("__sub__", "__rsub__"):
            self._patch_method(cr, attr, "exact.sub", LEAF)
        self._patch_method(cr, "sign", "exact.sign", LEAF, on_exit=_sign_exit)
        self._patch_method(cr, "enclosure", "exact.enclosure", LEAF, on_exit=_enclosure_exit)
        self._patch_method(cr, "float_box", "exact.float_box", LEAF)
        self._patch_method(cr, "from_obj", "exact.from_obj", LEAF)
        # float_box caches its result; count the calls that computed it
        fb = cr.__dict__["float_box"]
        self._patch(cr, "float_box", _count_computed(self, fb))

        self._patch_function(geometry.orientation, "geometry.orientation", LEAF,
                             on_exit=_orientation_exit)
        self._patch_function(geometry.on_open_segment, "geometry.on_open_segment", LEAF)
        self._patch_function(geometry.triangles_interior_disjoint, "geometry.disjoint", LEAF,
                             on_exit=_disjoint_exit)
        self._patch_method(geometry.Triangle, "twice_area", "geometry.twice_area", LEAF)

        self._patch_function(tiling.angle_matches, "tiling.angle_matches", LEAF)
        self._patch_function(tiling.gen_trivial, "tiling.gen", FULL)
        self._patch_function(tiling.save_tiling, "tiling.save", FULL, on_exit=_save_exit)
        self._patch_function(tiling.load_tiling, "tiling.load", FULL, on_exit=_load_exit)
        self._patch_function(tiling.verify, "tiling.verify", FULL, on_exit=_verify_exit)

        self._patch_function(vertex.enumerate_solutions, "vertex.enumerate_solutions", LEAF)
        self._patch_function(vertex.point_target, "vertex.point_target", LEAF)
        self._patch_function(vertex.audit_lemma, "vertex.audit_lemma", FULL,
                             name_of=_lemma_name)

        self._patch_function(classify.candidates, "classify.candidates", FULL)
        self._patch_function(classify.impossibility_audit, "classify.impossibility_audit", FULL)

        self._patch_function(cli.main, "cli.main", FULL)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span and aggregated leaf as one JSON document."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "op", "self_s", "attrs"],
            "spans": self.spans,
            "leaf_fields": ["anchor_span", "name", "parent_name",
                            "calls", "total_s", "self_s", "x1", "x2"],
            "leaves": [[*key, *rec] for key, rec in self.agg.items()],
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)


def _tilegate_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tilegate" or name.startswith("tilegate."))]


# -- per-function hooks ---------------------------------------------------------
#
# Leaf records carry two extra counters, x1 and x2, whose meaning depends on
# the span name:
#   geometry.orientation: x1 exact fallbacks, x2 fallbacks that returned 0
#   geometry.disjoint:    x1 pairs decided with no orientation call
#   exact.enclosure:      x1 the largest precision requested, in bits
#   exact.float_box:      x1 calls that computed the box (not cached)


def _parent_frame(tracer: Tracer) -> "list | None":
    return tracer.stack[-1] if tracer.stack else None


def _sign_exit(tracer, frame, rec, args, result):
    parent = _parent_frame(tracer)
    if parent is not None and parent[_NAME] == "geometry.orientation":
        parent[_FLAGS] |= _SAW_SIGN


def _enclosure_exit(tracer, frame, rec, args, result):
    prec = args[1] if len(args) > 1 else 64
    if prec > rec[_X1]:
        rec[_X1] = prec


def _orientation_exit(tracer, frame, rec, args, result):
    if frame[_FLAGS] & _SAW_SIGN:
        rec[_X1] += 1
        if result == 0:
            rec[_X2] += 1
    parent = _parent_frame(tracer)
    if parent is not None and parent[_NAME] == "geometry.disjoint":
        parent[_FLAGS] |= _SAW_ORIENTATION


def _disjoint_exit(tracer, frame, rec, args, result):
    if not frame[_FLAGS] & _SAW_ORIENTATION:
        rec[_X1] += 1


def _save_exit(tracer, frame, span, args, result):
    span[7] = {"bytes": os.path.getsize(args[1])}


def _load_exit(tracer, frame, span, args, result):
    span[7] = {"bytes": os.path.getsize(args[0])}


def _verify_exit(tracer, frame, span, args, result):
    span[7] = {"triangles": len(args[0].triangles), "ledger_points": len(result.ledger)}


def _lemma_name(args, kwargs):
    lemma = str(args[0] if args else kwargs.get("lemma_id")).upper().lstrip("L")
    return f"vertex.audit_lemma.L{lemma}"


def _count_computed(tracer: Tracer, wrapped_float_box):
    @functools.wraps(wrapped_float_box)
    def float_box(self):
        if self._box is None:
            # the call about to run computes the box; count it on its record
            stack = tracer.stack
            key = (stack[-1][_SPAN] if stack else None, "exact.float_box",
                   stack[-1][_NAME] if stack else None)
            result = wrapped_float_box(self)
            tracer.agg[key][_X1] += 1
            return result
        return wrapped_float_box(self)

    return float_box


# -- per-layer metrics ------------------------------------------------------------

VERIFY_STAGES = {
    # stage -> the public callees verify drives for it
    "similarity": ("tiling.angle_matches",),
    "containment": ("geometry.orientation",),
    "non_overlap": ("geometry.disjoint",),
    "area_cover": ("geometry.twice_area", "exact.add", "exact.sub", "exact.mul"),
    "point_ledger": ("geometry.on_open_segment", "vertex.point_target"),
}

LEMMAS = ("L3", "L4", "L5", "L6")


def layer_metrics(tracer: Tracer) -> "dict[str, tuple[float, str]]":
    """Per-layer metrics of everything the tracer recorded, as
    name -> (value, unit)."""
    leaf_calls: dict[str, int] = {}
    leaf_self: dict[str, float] = {}
    x1: dict[str, int] = {}
    x2: dict[str, int] = {}
    add_in_sub = 0
    enclosures_in_sign = 0
    max_prec = 0
    stage_s = dict.fromkeys(VERIFY_STAGES, 0.0)
    stage_of = {callee: stage for stage, callees in VERIFY_STAGES.items() for callee in callees}
    for (_anchor, name, parent), rec in tracer.agg.items():
        leaf_calls[name] = leaf_calls.get(name, 0) + rec[_CALLS]
        leaf_self[name] = leaf_self.get(name, 0.0) + rec[_SELF]
        x1[name] = x1.get(name, 0) + rec[_X1]
        x2[name] = x2.get(name, 0) + rec[_X2]
        if name == "exact.add" and parent == "exact.sub":
            add_in_sub += rec[_CALLS]
        if name == "exact.enclosure" and parent == "exact.sign":
            enclosures_in_sign += rec[_CALLS]
            max_prec = max(max_prec, rec[_X1])
        if parent == "tiling.verify" and name in stage_of:
            stage_s[stage_of[name]] += rec[_TOTAL]

    full_total: dict[str, float] = {}
    full_self: dict[str, float] = {}
    full_calls: dict[str, int] = {}
    attr_sum: dict[str, int] = {}
    for span in tracer.spans:
        name = span[1]
        full_total[name] = full_total.get(name, 0.0) + (span[3] - span[2])
        full_self[name] = full_self.get(name, 0.0) + span[6]
        full_calls[name] = full_calls.get(name, 0) + 1
        for key, value in (span[7] or {}).items():
            attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0) + value

    def calls(name):
        return leaf_calls.get(name, 0)

    def self_s(name):
        return leaf_self.get(name, 0.0)

    mul_calls = calls("exact.mul")
    orient_calls = calls("geometry.orientation")
    fallbacks = x1.get("geometry.orientation", 0)
    out: dict[str, tuple[float, str]] = {
        "exact.mul.calls": (mul_calls, "count"),
        "exact.mul.self_s": (self_s("exact.mul"), "s"),
        "exact.mul.us_per_call": (1e6 * self_s("exact.mul") / mul_calls if mul_calls else 0.0, "us"),
        "exact.add.calls": (calls("exact.add") - add_in_sub + calls("exact.sub"), "count"),
        "exact.add.self_s": (self_s("exact.add") + self_s("exact.sub"), "s"),
        "exact.sign.calls": (calls("exact.sign"), "count"),
        "exact.sign.enclosures": (enclosures_in_sign, "count"),
        "exact.sign.max_prec_bits": (max_prec, "bits"),
        "exact.float_box.computed": (x1.get("exact.float_box", 0), "count"),
        "exact.from_obj.calls": (calls("exact.from_obj"), "count"),
        "exact.from_obj.self_s": (self_s("exact.from_obj"), "s"),
        "geometry.orientation.calls": (orient_calls, "count"),
        "geometry.orientation.self_s": (self_s("geometry.orientation"), "s"),
        "geometry.orientation.exact_fallbacks": (fallbacks, "count"),
        "geometry.orientation.fallback_zero": (x2.get("geometry.orientation", 0), "count"),
        # base: every orientation call
        "geometry.filter_hit_ratio": (
            (orient_calls - fallbacks) / orient_calls if orient_calls else 0.0, "ratio"),
        "geometry.disjoint.calls": (calls("geometry.disjoint"), "count"),
        "geometry.disjoint.box_pruned": (x1.get("geometry.disjoint", 0), "count"),
        "geometry.disjoint.self_s": (self_s("geometry.disjoint"), "s"),
        "geometry.on_open_segment.calls": (calls("geometry.on_open_segment"), "count"),
        "geometry.on_open_segment.self_s": (self_s("geometry.on_open_segment"), "s"),
        "tiling.load.s": (full_total.get("tiling.load", 0.0), "s"),
        "tiling.load.bytes": (attr_sum.get("tiling.load.bytes", 0), "bytes"),
        "tiling.save.s": (full_total.get("tiling.save", 0.0), "s"),
        "tiling.save.bytes": (attr_sum.get("tiling.save.bytes", 0), "bytes"),
        "tiling.gen.s": (full_total.get("tiling.gen", 0.0), "s"),
        "tiling.verify.s": (full_total.get("tiling.verify", 0.0), "s"),
    }
    for stage, seconds in stage_s.items():
        out[f"tiling.verify.{stage}.s"] = (seconds, "s")
    out["tiling.verify.self_s"] = (full_self.get("tiling.verify", 0.0), "s")
    out["tiling.verify.triangles"] = (attr_sum.get("tiling.verify.triangles", 0), "count")
    out["tiling.verify.ledger_points"] = (attr_sum.get("tiling.verify.ledger_points", 0), "count")
    for lemma in LEMMAS:
        out[f"vertex.audit_lemma.{lemma}.s"] = (full_total.get(f"vertex.audit_lemma.{lemma}", 0.0), "s")
    out["vertex.enumerate_solutions.calls"] = (calls("vertex.enumerate_solutions"), "count")
    out["vertex.enumerate_solutions.self_s"] = (self_s("vertex.enumerate_solutions"), "s")
    out["classify.candidates.s"] = (full_total.get("classify.candidates", 0.0), "s")
    out["classify.impossibility_audit.calls"] = (full_calls.get("classify.impossibility_audit", 0), "count")
    out["classify.impossibility_audit.self_s"] = (full_self.get("classify.impossibility_audit", 0.0), "s")
    out["cli.main.calls"] = (full_calls.get("cli.main", 0), "count")
    out["cli.self_s"] = (full_self.get("cli.main", 0.0), "s")
    return out


def verify_subtree_counts(tracer: Tracer) -> "dict[str, int]":
    """Call counts below every tiling.verify span, for the self-check."""
    verify_ids = {span[0] for span in tracer.spans if span[1] == "tiling.verify"}
    counts = {"orientation": 0, "fallbacks": 0, "fallback_zero": 0,
              "disjoint": 0, "angle_matches": 0}
    for (anchor, name, _parent), rec in tracer.agg.items():
        if anchor not in verify_ids:
            continue
        if name == "geometry.orientation":
            counts["orientation"] += rec[_CALLS]
            counts["fallbacks"] += rec[_X1]
            counts["fallback_zero"] += rec[_X2]
        elif name == "geometry.disjoint":
            counts["disjoint"] += rec[_CALLS]
        elif name == "tiling.angle_matches":
            counts["angle_matches"] += rec[_CALLS]
    return counts
