"""Spans and counters recorded around the package's entry points.

A :class:`Recorder` wraps functions of the package from outside for the
length of one traced pass and restores them afterwards; the package itself
is never edited.  Each span records its name, start, end, parent span and
instance id, and is kept in memory until the run writes it out.  A span's
self time is its duration minus the time of its child spans.  Fine-grained
ring operations (integer and Z/p division) are counted, not timed.
"""
from __future__ import annotations

import json
import time
from collections import Counter

RING_TAG = {"int": "int", "mod_p": "modp", "poly": "poly"}
KERNELS = {"_det_cofactor": "cofactor", "_det_bareiss": "bareiss", "_det_berkowitz": "berkowitz"}
CONSTRUCTORS = ("mu_matrix", "mu_prime", "veronese_matrix", "eta_matrix", "pairing_matrix")
VERIFIERS = ("verify_hdv", "verify_dual", "verify_column_lemma", "verify_pairing")


def _layer_units() -> dict:
    units = {
        "rings.poly_mul.calls": "count",
        "rings.poly_mul.self_s": "s",
        "rings.poly_mul.term_products": "count",
        "rings.poly_mul.out_terms": "count",
        "rings.poly_pow.calls": "count",
        "rings.poly_pow.self_s": "s",
        "rings.poly_pow.out_terms": "count",
        "rings.poly_exact_div.calls": "count",
        "rings.poly_exact_div.self_s": "s",
        "rings.modp_exact_div.calls": "count",
        "rings.int_exact_div.calls": "count",
    }
    for kernel in KERNELS.values():
        for ring in RING_TAG.values():
            units[f"matrix.det.{kernel}.{ring}.calls"] = "count"
            units[f"matrix.det.{kernel}.{ring}.self_s"] = "s"
    units["matrix.minor.calls"] = "count"
    units["matrix.minor.self_s"] = "s"
    for name in CONSTRUCTORS:
        units[f"vandermonde.{name}.calls"] = "count"
        units[f"vandermonde.{name}.self_s"] = "s"
    units.update(
        {
            "vandermonde.minor_reuse": "ratio",
            "vandermonde.verify_hdv.calls": "count",
            "genpos.minors_route.self_s": "s",
            "genpos.eta_route.self_s": "s",
            "genpos.minors_before_verdict": "count",
            "cli.emit.self_s": "s",
            "cli.emit.bytes": "bytes",
            "process.cpu_s": "s",
            "trace.overhead_ratio": "ratio",
            "gate.failed_fraction": "fraction",
        }
    )
    return units


PER_LAYER = _layer_units()
# filled in by the run, not by a pass's spans
RUN_LEVEL = ("process.cpu_s", "trace.overhead_ratio", "gate.failed_fraction")
# metrics that count work; two traced runs of one seed must agree on them exactly
WORK_COUNTS = tuple(
    k for k, unit in PER_LAYER.items()
    if unit in ("count", "bytes") or k == "vandermonde.minor_reuse"
)


class Recorder:
    """Install with ``with Recorder(mv, workloads) as rec:``; read ``rec.metrics()``."""

    def __init__(self, mv, workloads):
        self.mv = mv
        self.workloads = workloads
        self.spans = []  # [name, start, end, parent index, instance, child time]
        self.stack = []  # indices of open spans
        self.counts = Counter()
        self.instance = -1
        self.minor_keys = set()
        self.minor_like_calls = 0
        self._pinned = []  # keeps matrices alive so their ids stay unique
        self._pairing = None  # (X, row -> index) while pairing_matrix runs
        self._undo = []

    # -- instance boundaries ------------------------------------------------

    def begin_instance(self, index: int) -> None:
        self.instance = index
        self._pinned.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.instance, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
                if stack:
                    spans[stack[-1]][5] += rec[2] - rec[1]
            if after is not None:
                after(rec, args, out)
            return out

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _kernel(self, kernel, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args):
            # kernels run only inside ExactMatrix.det, whose span is on top
            spans[stack[-1]][0] = "matrix.det." + kernel
            return fn(*args)

        return wrapper

    # -- hooks --------------------------------------------------------------

    def _after_poly_mul(self, rec, args, out):
        self.counts["rings.poly_mul.term_products"] += len(args[0].terms) * len(args[1].terms)
        self.counts["rings.poly_mul.out_terms"] += len(out.terms)

    def _after_poly_pow(self, rec, args, out):
        self.counts["rings.poly_pow.out_terms"] += len(out.terms)

    def _after_det(self, rec, args, out):
        M = args[0]
        rec[0] += "." + RING_TAG[M.ring.name]
        parent = rec[3]
        if self._pairing is not None and parent >= 0 and self.spans[parent][0] == "vandermonde.pairing_matrix":
            X, index = self._pairing
            rows = {index[r] for r in M.rows_raw()}
            # a block that repeats a row of X is not a minor of X
            if len(rows) == M.nrows:
                self._add_minor(X, tuple(sorted(rows)), tuple(range(M.ncols)))

    def _after_minor(self, rec, args, out):
        self._add_minor(args[0], tuple(args[1]), tuple(args[2]))

    def _add_minor(self, M, rows, cols):
        self._pinned.append(M)
        self.minor_keys.add((self.instance, id(M), rows, cols))
        self.minor_like_calls += 1

    def _after_emit(self, rec, args, out):
        self.counts["cli.emit.bytes"] += len(out.encode())

    # -- install / remove ---------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _replace_function(self, fn, wrapper):
        """Point every reference to ``fn`` in the package's modules at ``wrapper``."""
        for module in self._modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, name, wrapper)

    def __enter__(self):
        mv = self.mv
        rings, matrix, V, G = mv.rings, mv.matrix, mv.vandermonde, mv.genpos
        self._modules = (mv, rings, matrix, V, G)
        poly, elem = rings.Polynomial, rings.RingElement
        self._set(poly, "__mul__", self._span("rings.poly_mul", poly.__mul__, self._after_poly_mul))
        self._set(poly, "__pow__", self._span("rings.poly_pow", poly.__pow__, self._after_poly_pow))
        self._set(poly, "exact_div", self._span("rings.poly_exact_div", poly.exact_div))
        elem_pow = elem.__pow__
        poly_pow = self._span("rings.poly_pow", elem_pow, self._after_elem_pow)
        poly_ring = rings.PolynomialRing

        def pow_wrapper(x, e):
            return (poly_pow if isinstance(x.ring, poly_ring) else elem_pow)(x, e)

        self._set(elem, "__pow__", pow_wrapper)
        self._set(rings.IntegerRing, "exact_div", self._counted("rings.int_exact_div.calls", rings.IntegerRing.exact_div))
        self._set(rings.PrimeField, "exact_div", self._counted("rings.modp_exact_div.calls", rings.PrimeField.exact_div))
        EM = matrix.ExactMatrix
        self._set(EM, "det", self._span("matrix.det", EM.det, self._after_det))
        self._set(EM, "minor", self._span("matrix.minor", EM.minor, self._after_minor))
        for fname, kernel in KERNELS.items():
            self._set(matrix, fname, self._kernel(kernel, vars(matrix)[fname]))
        for name in CONSTRUCTORS + VERIFIERS:
            fn = vars(V)[name]
            self._replace_function(fn, self._span(f"vandermonde.{name}", fn))
        self._wrap_pairing()
        self._replace_function(G.in_general_position, self._span("genpos.minors_route", G.in_general_position))
        self._replace_function(G.in_general_position_via_eta, self._span("genpos.eta_route", G.in_general_position_via_eta))
        self._set(self.workloads, "emit", self._span("cli.emit", self.workloads.emit, self._after_emit))
        return self

    def _after_elem_pow(self, rec, args, out):
        self.counts["rings.poly_pow.out_terms"] += len(out.value.terms)

    def _wrap_pairing(self):
        V = self.mv.vandermonde
        spanned = V.pairing_matrix  # already the span wrapper

        def pairing_wrapper(X, *args, **kwargs):
            self._pinned.append(X)
            self._pairing = (X, {row: i for i, row in enumerate(X.rows_raw())})
            try:
                return spanned(X, *args, **kwargs)
            finally:
                self._pairing = None

        self._replace_function(spanned, pairing_wrapper)

    def __exit__(self, *exc):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        self._pinned.clear()
        return False

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded pass, except those in RUN_LEVEL."""
        spans = self.spans
        calls, self_s = Counter(), Counter()
        minors_before_verdict = 0
        for name, start, end, parent, _, child in spans:
            calls[name] += 1
            self_s[name] += end - start - child
            if name == "matrix.minor" and parent >= 0 and spans[parent][0] == "genpos.minors_route":
                minors_before_verdict += 1
        out = {}
        for key in PER_LAYER:
            if key in RUN_LEVEL:
                continue
            prefix, _, field = key.rpartition(".")
            if field == "self_s":
                out[key] = self_s[prefix]
            elif field == "calls":  # a span or a counter, never both
                out[key] = calls[prefix] + self.counts[key]
            else:
                out[key] = self.counts[key]
        out["vandermonde.minor_reuse"] = (
            len(self.minor_keys) / self.minor_like_calls if self.minor_like_calls else 1.0
        )
        out["genpos.minors_before_verdict"] = minors_before_verdict
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, instance, _ in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "instance": instance,
                }) + "\n")
