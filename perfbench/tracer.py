"""Span tracer that instruments qasc from outside, for the traced run.

Nothing under src/qasc is edited. The tracer replaces each public entry
point with a wrapper in every namespace where callers look it up: the
defining module, every qasc module that imported the name, and the class
dict for methods (aliases such as ``__radd__ = __add__`` included).

Two kinds of wrapper share one frame stack, so self time is exact:

* a *span* records (id, parent id, name, request id, start, end);
* a *hot* call (``qpoch``, ``Poly.__mul__`` and the like, up to ~10^5
  calls per pass) only adds to a per-name call count.

Both kinds add their self time to the total of their module within the
current request, so the self times of one check request sum to the
duration of its outermost span.  Module imports are spans too (request id
``setup``), so a module's self time includes the top-level code it runs at
import; ``qasc.numeric`` pays for importing mpmath that way.  Spans stay
in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import sys
import time

MODULES = ("core", "qkernel", "polys", "qops", "identities", "numeric", "cli")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        # frame = [time covered by children, id of the nearest enclosing span]
        self.stack: list[list] = [[0.0, None]]
        # request id -> module -> self seconds
        self.self_s: dict[str, dict[str, float]] = {"setup": {}}
        self.calls: dict[str, int] = {}
        self.counts = {
            "numeric.integrand_evals": 0,
            "numeric.terms_summed": 0,
            "numeric.u_shells": 0,
            "identities.coeff_bits.max": 0,
            "identities.terms.total": 0,
        }
        self.request = "setup"
        # measuring the sides of a comparison is the tracer's own time
        self.observe = self.wrap("trace", "observe_sides", self.observe_sides, span=False)

    def wrap(self, module, name, fn, span=True, request=None, adapt=None):
        """Return fn wrapped as a span (or a hot call when span=False).

        request(args) names the request the call starts; adapt(args)
        rewrites the arguments, e.g. to count integrand evaluations.
        """
        key = f"{module}.{name}"
        self.calls.setdefault(key, 0)
        calls, selfs, stack, spans, clock = self.calls, self.self_s, self.stack, self.spans, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if adapt is not None:
                args = adapt(args)
            prev = self.request
            if request is not None:
                self.request = request(args)
                selfs.setdefault(self.request, {})
            parent = stack[-1][1]
            sid = len(spans) if span else parent
            if span:
                spans.append(None)  # reserve the id; filled on exit
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = selfs[self.request]
                own[module] = own.get(module, 0.0) + dur - frame[0]
                stack[-1][0] += dur
                if span:
                    spans[sid] = (sid, parent, key, self.request, t0, t1)
                self.request = prev

        return wrapper

    def count_calls(self, fn, counter):
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def count_items(self, iterable, counter):
        counts = self.counts
        for item in iterable:
            counts[counter] += 1
            yield item

    def observe_sides(self, lhs, rhs):
        """Coefficient bit-height and nonzero-term counts of both sides of
        one exact comparison (TSeries or Poly)."""
        bits = self.counts["identities.coeff_bits.max"]
        terms = 0
        for side in (lhs, rhs):
            for poly in getattr(side, "coeffs", (side,)):
                terms += len(poly.terms)
                for c in poly.terms.values():
                    b = max(c.numerator.bit_length(), c.denominator.bit_length())
                    if b > bits:
                        bits = b
        self.counts["identities.coeff_bits.max"] = bits
        self.counts["identities.terms.total"] += terms

    def install_import_spans(self):
        """Record every qasc module import as a span of its module."""
        sys.meta_path.insert(0, _ImportSpans(self))

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["id", "parent", "name", "request", "start", "end"],
                    "spans": self.spans,
                },
                fh,
            )


def module_of(import_name: str) -> str:
    part = import_name.rpartition(".")[2]
    return part if part in MODULES else "cli"  # package __init__ and __main__


class _ImportSpans:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        if name != "qasc" and not name.startswith("qasc."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.loader is not None:
            spec.loader.exec_module = self.tracer.wrap(
                module_of(name), "import:" + name, spec.loader.exec_module
            )
        return spec


def _replace(namespaces, old, new):
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is old:
                setattr(ns, attr, new)


def instrument(tracer: Tracer):
    """Wrap the public entry points of every qasc module."""
    import qasc.cli as cli
    import qasc.core as core
    import qasc.identities as identities
    import qasc.numeric as numeric
    import qasc.polys as polys
    import qasc.qkernel as qkernel
    import qasc.qops as qops

    namespaces = [m for n, m in sys.modules.items() if n == "qasc" or n.startswith("qasc.")]

    def patch(module, owner, names, **kw):
        for name in names:
            fn = vars(owner)[name]
            label = f"{owner.__name__}.{name}" if isinstance(owner, type) else name
            _replace([owner] if isinstance(owner, type) else namespaces, fn,
                     tracer.wrap(module, label, fn, **kw))

    hot = dict(span=False)
    patch("core", core.Poly, ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                              "__pow__", "__eq__", "shift", "xcoeff_as_y_poly"), **hot)
    patch("core", core.TSeries, ("__add__", "__sub__", "__mul__", "scale", "shift_t",
                                 "inverse"), **hot)
    patch("core", core, ("random_paramset",), **hot)

    first_mismatch = tracer.wrap("core", "TSeries.first_mismatch", core.TSeries.first_mismatch)

    def compare(lhs, rhs):
        tracer.observe(lhs, rhs)
        return first_mismatch(lhs, rhs)

    core.TSeries.first_mismatch = compare

    patch("qkernel", qkernel, ("hyper_series", "euler_inverse_series",
                               "euler_product_series", "qpoch_t_poly"))
    patch("qkernel", qkernel, ("qpoch", "qpoch_multi", "qbinom", "binom2"), **hot)

    patch("polys", polys, ("asc_phi", "asc_psi", "asc3_phi", "asc3_psi", "asc5_phi",
                           "asc5_psi", "cauchy_pn", "rogers_szego_hn"))

    patch("qops", qops, ("apply_operator", "leibniz"))
    patch("qops", qops, ("op_power",), **hot)

    patch("identities", identities, ("verify",),
          request=lambda a: f"{a[0].id}:{a[3] if len(a) > 3 else 0}")
    patch("identities", identities, ("trial_paramset", "qdiff_residual",
                                     "expand_series_in_basis", "expand_poly_in_basis",
                                     "synthesize_from_basis", "build_id3_rhs",
                                     "build_id4_rhs"))
    for check in identities.CATALOG.values():
        object.__setattr__(check, "build",
                           tracer.wrap("identities", "IdentityCheck.build", check.build))

    patch("numeric", numeric.NumericCheck, ("execute",), request=lambda a: f"{a[0].id}:0")
    patch("numeric", numeric, ("transformation_lhs", "transformation_rhs", "u_series",
                               "u_series_rhs", "ramanujan_integral",
                               "ramanujan_closed_form", "gauss_legendre_nodes"))
    patch("numeric", numeric, ("integrate_panels",), adapt=lambda a: (
        tracer.count_calls(a[0], "numeric.integrand_evals"),) + a[1:])
    patch("numeric", numeric, ("sum_until_tail",), span=False, adapt=lambda a: (
        tracer.count_items(a[0], "numeric.terms_summed"),) + a[1:])
    patch("numeric", numeric, ("poch_inf", "hyper_num", "asc5_phi_num", "qpoch_num",
                               "rel_diff"), **hot)

    # one _compositions call per shell comes from u_series; the others are
    # its own recursion
    compositions = numeric._compositions
    shell_caller = numeric.u_series.__wrapped__.__code__

    def shells(*args):
        if sys._getframe(1).f_code is shell_caller:
            tracer.counts["numeric.u_shells"] += 1
        return compositions(*args)

    numeric._compositions = shells

    patch("cli", cli, ("main",), request=lambda a: "cli")
