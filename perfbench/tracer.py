"""Spans around the public calls into each equisplit module, installed from outside.

``Tracer.install`` wraps every layer function named in ``LAYERS`` at every
module binding that refers to it (for example ``cohomology.rref_sparse``,
``splitting._h0_basis`` and ``cli.equivariant_split`` as well as the defining
module), plus the arithmetic methods of ``LaurentMatrix`` and ``LaurentPoly``;
``Tracer.remove`` puts every original back.  No file of the program changes.

Each call records a span: layer, start, end, parent span and instance id.
Laurent multiplication is called millions of times and is a leaf, so its calls
are folded into one aggregate record per (parent span) instead of one span
each; self time is unaffected because a leaf's self time is its duration.
A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (defining module, attribute, layer).  The first module is where the
# original lives; every other equisplit module binding the same object is
# patched too.
LAYERS = (
    ("equisplit.cli", "main", "cli"),
    ("equisplit.jsonio", "load_json_file", "jsonio.parse"),
    ("equisplit.jsonio", "instance_from_json", "jsonio.parse"),
    ("equisplit.jsonio", "certificate_from_json", "jsonio.parse"),
    ("equisplit.jsonio", "certificate_to_json", "jsonio.emit"),
    ("equisplit.jsonio", "dumps_canonical", "jsonio.emit"),
    ("equisplit.bundle", "validate", "bundle.validate"),
    ("equisplit.bundle", "twist", "bundle.twist"),
    ("equisplit.splitting", "equivariant_split", "splitting.split"),
    ("equisplit.splitting", "peel", "splitting.peel"),
    ("equisplit.splitting", "max_twist", "splitting.max_twist"),
    ("equisplit.splitting", "eigen_section", "splitting.eigen_section"),
    ("equisplit.splitting", "triangular_clear", "splitting.triangular_clear"),
    ("equisplit.splitting", "verify_certificate", "splitting.verify"),
    # every H^0 solve (h0_dim, h0_character, h0_sections, eigen_section) runs _h0_basis once
    ("equisplit.cohomology", "_h0_basis", "cohomology.h0"),
    ("equisplit.cohomology", "cech_cohomology", "cohomology.cech"),
    ("equisplit.linalg", "rref_sparse", "linalg.rref"),
    ("equisplit.linalg", "rank_sparse", "linalg.rank"),
    ("equisplit.linalg", "mat_det", "linalg.det"),
    ("equisplit.linalg", "mat_adjugate", "linalg.adjugate"),
    ("equisplit.laurent", "poly_ext_gcd", "laurent.ext_gcd"),
)
# (module, class, method, layer)
METHODS = (
    ("equisplit.linalg", "LaurentMatrix", "__matmul__", "linalg.matmul"),
    ("equisplit.laurent", "LaurentPoly", "__mul__", "laurent.mul"),
    ("equisplit.laurent", "LaurentPoly", "__rmul__", "laurent.mul"),
)
LEAF = "laurent.mul"
ALL_LAYERS = tuple(dict.fromkeys([x[2] for x in LAYERS] + [x[3] for x in METHODS]))


def calls_name(layer: str) -> str:
    """The call-count metric of a layer; the CLI layer is named cli.calls."""
    return "cli.calls" if layer == "cli" else f"{layer}_calls"


# Span record fields.
NAME, START, END, PARENT, INSTANCE, COUNTS = range(6)


def _elimination_counts(args):
    """Materialize the row iterable so its size can be counted."""
    rows = list(args[0])
    counts = {"rows_in": len(rows), "cols": args[1], "nnz_in": sum(len(r) for r in rows)}
    return (rows, *args[1:]), counts


def _det_counts(args):
    return args, {"m": args[0].rows}


# layer -> hook(args) -> (args, counts); the counts are stored on the span
ARG_HOOKS = {"linalg.rref": _elimination_counts, "linalg.rank": _elimination_counts,
             "linalg.det": _det_counts}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaf: dict[int, list] = {}  # parent span -> [calls, seconds, term products]
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer: str):
        hook = ARG_HOOKS.get(layer)
        emits = layer == "jsonio.emit"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            counts = None
            if hook is not None:
                args, counts = hook(args)
            idx = len(spans)
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, self.instance, counts]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()
            if emits and isinstance(out, str):
                span[COUNTS] = {"bytes_out": len(out.encode("utf-8"))}
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, fn):
        leaf, stack = self.leaf, self._stack

        def traced(a, b):
            t0 = perf_counter()
            out = fn(a, b)
            dt = perf_counter() - t0
            parent = stack[-1] if stack else -1
            rec = leaf.get(parent)
            if rec is None:
                rec = leaf[parent] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            terms = getattr(b, "terms", None)
            if terms is not None:
                rec[2] += len(a.terms) * len(terms)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, *_ in LAYERS + METHODS:
            importlib.import_module(modname)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "equisplit" or name.startswith("equisplit.")]
        for modname, attr, layer in LAYERS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, layer)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for modname, clsname, attr, layer in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            wrapper = self._wrap_leaf(original) if layer == LEAF else self._wrap(original, layer)
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- analysis ------------------------------------------------------------

    def layer_table(self) -> dict[str, dict]:
        """Per layer: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        table: dict[str, dict] = {}

        def row(layer):
            return table.setdefault(layer, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            leaf = self.leaf.get(i)
            leaf_s = leaf[1] if leaf else 0.0
            r = row(s[NAME])
            r["calls"] += 1
            r["incl_s"] += dur  # no layer calls itself, so durations never overlap
            r["self_s"] += dur - child[i] - leaf_s
        for rec in self.leaf.values():
            r = row(LEAF)
            r["calls"] += rec[0]
            r["incl_s"] += rec[1]
            r["self_s"] += rec[1]
        return table

    def counters(self) -> dict[str, int]:
        """Work counts, every one present even when 0; they depend only on the instances."""
        c = {calls_name(layer): 0 for layer in ALL_LAYERS}
        c.update({f"{layer}_{k}": 0 for layer in ("linalg.rref", "linalg.rank")
                  for k in ("rows_in", "cols", "nnz_in")})
        c.update({"linalg.det_max_m": 0, "jsonio.bytes_out": 0, "laurent.mul_term_products": 0,
                  "splitting.max_twist_steps": 0, "cohomology.cech_windows": 0})
        for s in self.spans:
            name, parent = s[NAME], s[PARENT]
            pname = self.spans[parent][NAME] if parent >= 0 else None
            c[calls_name(name)] += 1
            counts = s[COUNTS]
            if name in ("linalg.rref", "linalg.rank"):
                for k, v in counts.items():
                    c[f"{name}_{k}"] += v
            elif name == "linalg.det":
                c["linalg.det_max_m"] = max(c["linalg.det_max_m"], counts["m"])
            elif name == "jsonio.emit" and counts:
                c["jsonio.bytes_out"] += counts["bytes_out"]
            if name == "cohomology.h0" and pname == "splitting.max_twist":
                c["splitting.max_twist_steps"] += 1
            if name == "linalg.rank" and pname == "cohomology.cech":
                c["cohomology.cech_windows"] += 1
        for rec in self.leaf.values():
            c[calls_name(LEAF)] += rec[0]
            c["laurent.mul_term_products"] += rec[2]
        return c

    def dump(self) -> dict:
        """Spans in a compact, JSON-ready form (times in microseconds from the first span)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "fields": ["layer", "start_us", "dur_us", "parent", "instance", "counts"],
            "spans": [[s[NAME], round((s[START] - t0) * 1e6), round((s[END] - s[START]) * 1e6),
                       s[PARENT], s[INSTANCE], s[COUNTS]] for s in self.spans],
            "leaf": {"layer": LEAF, "fields": ["parent", "calls", "dur_us", "term_products"],
                     "records": [[p, r[0], round(r[1] * 1e6), r[2]]
                                 for p, r in sorted(self.leaf.items())]},
        }
