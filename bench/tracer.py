"""Span tracer for the benchmark's traced run.

Wraps the public functions of the ``dualbch`` modules at every module that
binds them by name (``rref`` is bound in ``gf`` and ``mindist``,
``coset_table`` in five modules), so internal calls are seen as well as the
benchmark's own.  Each call records one span: function, start, end, parent
span and operation id.  Spans stay in memory; self time, call counts and the
work counters are computed from them when the run ends, and the spans are
written out once.

Counter hooks run with the clock paused, so their cost lands in no span.
The tracer keeps one span stack and assumes a single thread, which the
benchmark guarantees by running every command with ``--threads 1``.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from collections import defaultdict

import numpy as np

import dualbch
from dualbch import bch, cli, cyclotomic, dualtools, gf, mindist, propchecks

# (module, qualified name) of every traced function, in report order.
TRACED = [
    (cyclotomic, "coset_table"),
    (cyclotomic, "largest_leaders"),
    (cyclotomic, "CosetTable.cosets"),
    (cyclotomic, "largest_leaders_closed_form"),
    (bch, "bch_spec"),
    (bch, "defining_set"),
    (bch, "dual_defining_set"),
    (bch, "bch_bound_from_set"),
    (bch, "dual_code_params"),
    (bch, "generator_matrix"),
    (dualtools, "bound_report"),
    (dualtools, "i_delta_direct"),
    (dualtools, "i_delta_closed_power_form"),
    (dualtools, "i_delta_closed_divisor_form"),
    (dualtools, "dual_lower_bound"),
    (dualtools, "prior_bounds"),
    (dualtools, "dually_bch_direct"),
    (dualtools, "dually_bch_closed"),
    (gf, "field_new"),
    (gf, "minimal_polynomial"),
    (gf, "rref"),
    (mindist, "certify"),
    (mindist, "in_row_space"),
    (propchecks, "run_grid"),
    (propchecks, "check_leader_floor_power_form"),
    (propchecks, "check_leader_floor_divisor_form"),
    (propchecks, "check_tperp_leader_membership"),
    (cli, "main"),
    (cli, "emit"),
]

PACKAGE_MODULES = (dualbch, bch, cli, cyclotomic, dualtools, gf, mindist, propchecks)


def span_name(module, qualname: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{qualname}"


class Tracer:
    """Records spans around the traced functions once installed."""

    def __init__(self):
        self.names = [span_name(mod, q) for mod, q in TRACED]
        self.spans = []  # (fid, start, end, parent, op); None while open
        self.stack = []
        self.op = 0
        self.paused = 0.0
        self.counts = defaultdict(int)
        self.enabled = True

    @contextlib.contextmanager
    def off(self):
        """Run the benchmark's own checks without recording their calls."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _wrap(self, fid, fn, hook=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                stack.pop()
                spans[sid] = (fid, t0, t1, parent, self.op)
            if hook is not None:
                h0 = time.perf_counter()
                hook(args, result)
                self.paused += time.perf_counter() - h0
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function by its wrapper."""
        hooks = {
            "cyclotomic.coset_table": self._on_coset_table,
            "mindist.certify": self._on_certify,
        }
        for fid, (mod, qualname) in enumerate(TRACED):
            name = self.names[fid]
            if qualname == "CosetTable.cosets":
                prop = cyclotomic.CosetTable.cosets
                cyclotomic.CosetTable.cosets = property(self._wrap(fid, prop.fget))
                continue
            original = getattr(mod, qualname)
            wrapper = self._wrap(fid, original, hooks.get(name))
            bound = 0
            for module in PACKAGE_MODULES:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{name} is bound nowhere")

    # -- counter hooks (run with the clock paused) --------------------------

    def _on_coset_table(self, args, table):
        self.counts["cyclotomic.table_elems"] += table.n
        lead = table.leader_of
        self.counts["cyclotomic.cosets"] += int(
            np.count_nonzero(lead == np.arange(table.n, dtype=lead.dtype)))

    def _on_certify(self, args, cert):
        params = args[0]
        self.counts["mindist.certificates"] += 1
        self.counts["mindist.exact"] += cert.status == "exact"
        if cert.method == "exhaustive":
            self.counts["mindist.codewords_enumerated"] += (
                params.generator.field.q ** params.k - 1)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus the work counters."""
        names = self.names
        calls = dict.fromkeys(names, 0)
        own = dict.fromkeys(names, 0.0)
        child = defaultdict(float)  # span id -> seconds covered by children
        isd_trials = 0
        for fid, t0, t1, parent, _ in self.spans:
            calls[names[fid]] += 1
            if parent >= 0:
                child[parent] += t1 - t0
                # an rref called straight from certify is one information-set
                # trial; the one under in_row_space re-verifies the witness
                isd_trials += (names[fid], names[self.spans[parent][0]]) == (
                    "gf.rref", "mindist.certify")
        for sid, (fid, t0, t1, _, _) in enumerate(self.spans):
            own[names[fid]] += (t1 - t0) - child[sid]
        out = {}
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        c = self.counts
        tables, certs = calls["cyclotomic.coset_table"], c["mindist.certificates"]
        out.update({
            "cyclotomic.table_elems": c["cyclotomic.table_elems"],
            "cyclotomic.cosets": c["cyclotomic.cosets"],
            "cyclotomic.largest_leaders.calls_per_table":
                calls["cyclotomic.largest_leaders"] / tables if tables else 0.0,
            "dualtools.deltas": calls["dualtools.dually_bch_direct"],
            "gf.rref.calls_per_certify": isd_trials / certs if certs else 0.0,
            "mindist.codewords_enumerated": c["mindist.codewords_enumerated"],
            "mindist.exact_ratio": c["mindist.exact"] / certs if certs else 0.0,
        })
        return out

    def write(self, path, header: str) -> None:
        """Write every span once, as gzip'd tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(f"# {header}\n")
            f.write("id\tname\tstart\tend\tparent\top\n")
            names = self.names
            for sid, (fid, t0, t1, parent, op) in enumerate(self.spans):
                f.write(f"{sid}\t{names[fid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")
