"""Span and counter tracing of the qball layers, applied from outside.

A :class:`Tracer` replaces public functions and methods of the ``qball``
modules with thin wrappers while it is installed, and puts the originals
back when it is removed.  A module-level function is patched under every
name that refers to it in every loaded ``qball`` module (``normalize`` is
imported into ``suites``, ``bidegree`` into ``kernels`` and so on), a
method on its class under every alias (``__rmul__ = __mul__``).

Two kinds of wrapper exist:

* a *span* records (name, start, end, parent) for each call; the parent is
  the innermost span open on the same thread;
* a *counter* only counts calls, for the hot paths (``VScalar`` arithmetic,
  ``pair_rule``, ``bidegree``) where a span per call would cost more than
  the call.

The ``verify --suite all`` pool runs suites on several threads, so every
thread keeps its own span stack, span list and counters; they are only
combined, by summing, in :meth:`Tracer.summary`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# fixed here rather than read from qball.suites, so that the per-layer
# metric names stay the same when the program changes
SUITES = ["laplace", "central", "confluence", "invariance", "star", "action",
          "poisson", "p11", "hua-kernel", "hua-theorem-n1",
          "shilov-consistency"]

# span name -> (module, attribute path)
SPANS = {
    "cli.main": ("qball.cli", "main"),
    "kernels.substitute": ("qball.kernels", "substitute_x_inverse"),
    "kernels.poisson_kernel": ("qball.kernels", "poisson_kernel"),
    "kernels.kinverse": ("qball.kernels", "kinverse"),
    "kernels.kmul": ("qball.kernels", "Kernel.__mul__"),
    "kernels.build_L": ("qball.kernels", "build_L"),
    "kernels.act": ("qball.kernels", "Kernel.act"),
    "ncpoly.pow": ("qball.ncpoly", "NCPoly.__pow__"),
    "ncpoly.mul": ("qball.ncpoly", "NCPoly.__mul__"),
    "uqact.act": ("qball.uqact", "act"),
    "qmatrix.qminor": ("qball.qmatrix", "qminor"),
    "polmat.shilov_residuals": ("qball.polmat", "shilov_residuals_gl"),
    "boundary.shilov_reduce": ("qball.boundary", "shilov_reduce"),
    "hua.verify_hua_kernel": ("qball.hua", "verify_hua_kernel"),
    "hua.verify_hua_theorem_n1": ("qball.hua", "verify_hua_theorem_n1"),
    "hua.match": ("qball.hua", "match_up_to_scalar"),
    "classical.kernel": ("qball.classical", "classical_kernel"),
    "parser.parse_expr": ("qball.parser", "parse_expr"),
    "render.poly_text": ("qball.render", "poly_text"),
}

# counter name -> (module, attribute path); calls are counted, not timed
COUNTERS = {
    "kernels.kadd_calls": ("qball.kernels", "Kernel.__add__"),
    "algebras.bidegree_calls": ("qball.algebras", "bidegree"),
    "algebras.star_poly_calls": ("qball.algebras", "star_poly"),
    "uqact.act_word_calls": ("qball.uqact", "act_word"),
    "boundary.nu_n1_calls": ("qball.boundary", "nu_n1"),
    "scalars.inverse_calls": ("qball.scalars", "VScalar.inverse"),
}

# per-layer metric -> (span name, statistic); "calls" counts spans, "s" is
# the inclusive time of the outermost spans of that name
SPAN_METRICS = {
    "kernels.substitute_s": ("kernels.substitute", "s"),
    "ncpoly.pow_s": ("ncpoly.pow", "s"),
    "ncpoly.mul_calls": ("ncpoly.mul", "calls"),
    "ncpoly.mul_s": ("ncpoly.mul", "s"),
    "ncpoly.normalize_calls": ("ncpoly.normalize", "calls"),
    "ncpoly.normalize_s": ("ncpoly.normalize", "s"),
    "kernels.poisson_kernel_calls": ("kernels.poisson_kernel", "calls"),
    "kernels.poisson_builds": ("kernels.substitute", "calls"),
    "kernels.kinverse_s": ("kernels.kinverse", "s"),
    "kernels.kmul_calls": ("kernels.kmul", "calls"),
    "kernels.kmul_s": ("kernels.kmul", "s"),
    "kernels.build_L_s": ("kernels.build_L", "s"),
    "kernels.act_s": ("kernels.act", "s"),
    "uqact.act_calls": ("uqact.act", "calls"),
    "uqact.act_s": ("uqact.act", "s"),
    "qmatrix.qminor_calls": ("qmatrix.qminor", "calls"),
    "qmatrix.qminor_s": ("qmatrix.qminor", "s"),
    "polmat.shilov_residuals_s": ("polmat.shilov_residuals", "s"),
    "boundary.shilov_reduce_calls": ("boundary.shilov_reduce", "calls"),
    "boundary.shilov_reduce_s": ("boundary.shilov_reduce", "s"),
    "hua.verify_hua_kernel_s": ("hua.verify_hua_kernel", "s"),
    "hua.verify_hua_theorem_n1_s": ("hua.verify_hua_theorem_n1", "s"),
    "hua.match_s": ("hua.match", "s"),
    "classical.kernel_s": ("classical.kernel", "s"),
    "parser.parse_expr_s": ("parser.parse_expr", "s"),
    "render.poly_text_s": ("render.poly_text", "s"),
    "cli.main_s": ("cli.main", "s"),
}
SPAN_METRICS.update({f"suites.{s}_s": (f"suites.{s}", "s") for s in SUITES})


class _ThreadState:
    __slots__ = ("tid", "counts", "spans", "stack", "max_num_len")

    def __init__(self, tid: int):
        self.tid = tid
        self.counts = defaultdict(int)
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []      # indices of the open spans
        self.max_num_len = 0


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.summary()`` after."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list = []
        self._patches: list = []     # (owner, name, original)
        self.missing: list = []      # targets that no longer exist
        self.origin = 0.0

    # -- per-thread state ----------------------------------------------------

    def _new_state(self) -> _ThreadState:
        st = _ThreadState(threading.get_ident())
        with self._lock:
            self._states.append(st)
        self._local.st = st
        return st

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn, label=None, after=None):
        local, new_state, clock = self._local, self._new_state, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            spans, stack = st.spans, st.stack
            rec = [label(args) if label else name, clock(), 0.0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(st, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        local, new_state = self._local, self._new_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            st.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _scalar_op(self, kind, fn):
        """VScalar multiply or add: counts calls, multiplies with an operand
        that is a single monomial c*v^k, operations with an operand that has
        a true denominator, and the largest numerator length produced.  A
        plain int or Fraction operand counts as a monomial without a
        denominator."""
        local, new_state = self._local, self._new_state
        unit = (1,)
        scalar = sys.modules["qball.scalars"].VScalar
        calls, den = f"scalars.{kind}_calls", "scalars.den_ops"
        mono = "scalars.mul_mono" if kind == "mul" else None

        @functools.wraps(fn)
        def wrapper(a, b):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            c = st.counts
            c[calls] += 1
            a_den = a.den != unit
            if isinstance(b, scalar):
                b_den = b.den != unit
                b_mono = not b_den and len(b.num) <= 1
            else:
                b_mono, b_den = True, False
            if mono and (b_mono or (not a_den and len(a.num) <= 1)):
                c[mono] += 1
            if a_den or b_den:
                c[den] += 1
            r = fn(a, b)
            if len(r.num) > st.max_num_len:
                st.max_num_len = len(r.num)
            return r
        return wrapper

    def _pair_rule(self, fn):
        local, new_state = self._local, self._new_state

        @functools.wraps(fn)
        def wrapper(alg, g, h):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            c = st.counts
            c["ncpoly.rewrite_steps"] += 1
            if (g, h) in getattr(alg, "_pair_cache", ()):
                c["ncpoly.pair_cache_hits"] += 1
            return fn(alg, g, h)
        return wrapper

    def _kernel_init(self, fn):
        local, new_state = self._local, self._new_state

        @functools.wraps(fn)
        def wrapper(self_, space, terms, truncated=False):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            fn(self_, space, terms, truncated)
            c = st.counts
            c["kernels.init_calls"] += 1
            c["kernels.init_terms_in"] += len(terms)
            c["kernels.init_terms_kept"] += len(self_.terms)
        return wrapper

    # -- patching ------------------------------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        try:
            owner, attr = _resolve(module, path)
            original = (owner.__dict__ if isinstance(owner, type) else vars(owner))[attr]
        except (KeyError, AttributeError):
            # a layer function renamed or removed since the benchmark was
            # written: its metrics read 0 and the name is reported
            self.missing.append(f"{module}.{path}")
            return
        if isinstance(owner, type):
            wrapper = make(original)
            for key, val in list(vars(owner).items()):
                if val is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qball" or mod_name.startswith("qball.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        import qball.cli  # noqa: F401  (loads every layer module)
        import qball.suites  # noqa: F401
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (mod, path) in SPANS.items():
            self._patch(mod, path, functools.partial(self._span, name))
        for name, (mod, path) in COUNTERS.items():
            self._patch(mod, path, functools.partial(self._counter, name))
        self._patch("qball.suites", "run_suite", lambda fn: self._span(
            "suites", fn, label=lambda args: f"suites.{args[0]}"))
        self._patch("qball.ncpoly", "normalize", lambda fn: self._span(
            "ncpoly.normalize", fn, after=_count_terms_out))
        self._patch("qball.scalars", "VScalar.__mul__",
                    functools.partial(self._scalar_op, "mul"))
        self._patch("qball.scalars", "VScalar.__add__",
                    functools.partial(self._scalar_op, "add"))
        self._patch("qball.ncpoly", "Algebra.pair_rule", self._pair_rule)
        self._patch("qball.kernels", "Kernel.__init__", self._kernel_init)
        self.origin = time.perf_counter()
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict:
        """Counters summed over threads, the largest numerator length, the
        number of threads that ran traced work below ``cli.main``, and every
        span as (thread id, name, start, end, parent index), with times
        relative to installation; the parent index counts that thread's
        spans in start order."""
        counts: dict = defaultdict(int)
        spans = []
        max_num_len = 0
        for st in self._states:
            for k, v in st.counts.items():
                counts[k] += v
            max_num_len = max(max_num_len, st.max_num_len)
            spans.extend((st.tid, name, start - self.origin, end - self.origin, parent)
                         for name, start, end, parent in st.spans)
        workers = [st for st in self._states
                   if any(rec[0] != "cli.main" for rec in st.spans)]
        return {"threads": len(workers), "counts": dict(counts),
                "max_num_len": max_num_len, "spans": spans}


def _count_terms_out(st, result) -> None:
    st.counts["ncpoly.terms_out"] += len(result.terms)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _by_thread(spans) -> dict:
    out: dict = defaultdict(list)
    for t, name, start, end, parent in spans:
        out[t].append((name, start, end, parent))
    return out


def span_stats(spans) -> dict:
    """name -> {"calls", "s", "self_s"}.

    ``s`` sums the durations of the spans of that name that have no
    ancestor of the same name, so recursion is not counted twice.
    ``self_s`` sums each span's duration minus the durations of its direct
    children; children run on the parent's thread, inside its interval and
    one after another, so the difference is the time the span spent
    outside every traced child.
    """
    stats: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for recs in _by_thread(spans).values():
        child_time = [0.0] * len(recs)
        for name, start, end, parent in recs:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(recs):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and recs[p][0] != name:
                p = recs[p][3]
            if p < 0:
                entry["s"] += end - start
    return dict(stats)


def overlap_time(intervals, depth: int = 2) -> float:
    """Total time during which at least ``depth`` intervals are open."""
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    total, open_, last = 0.0, 0, 0.0
    for t, step in events:
        if open_ >= depth:
            total += t - last
        open_ += step
        last = t
    return total


def build_time(spans, outer: str, inner: str) -> float:
    """Summed duration of ``outer`` spans with a direct ``inner`` child."""
    total = 0.0
    for recs in _by_thread(spans).values():
        hit = {parent for name, _, _, parent in recs if name == inner and parent >= 0}
        total += sum(end - start for i, (name, start, end, _) in enumerate(recs)
                     if name == outer and i in hit)
    return total


def layer_metrics(summary: dict) -> dict:
    """Every per-layer metric, from one traced run's summary."""
    spans = summary["spans"]
    stats = span_stats(spans)
    counts = summary["counts"]

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    out = {}
    for metric, (name, stat) in SPAN_METRICS.items():
        out[metric] = stats.get(name, {}).get(stat, 0)
    for metric in COUNTERS:
        out[metric] = counts.get(metric, 0)
    for metric in ("ncpoly.rewrite_steps", "ncpoly.terms_out",
                   "kernels.init_calls", "kernels.init_terms_in"):
        out[metric] = counts.get(metric, 0)
    out["scalars.mul_calls"] = counts.get("scalars.mul_calls", 0)
    out["scalars.add_calls"] = counts.get("scalars.add_calls", 0)
    out["ncpoly.steps_per_term"] = ratio("ncpoly.rewrite_steps", "ncpoly.terms_out")
    out["ncpoly.pair_cache_hit_ratio"] = ratio("ncpoly.pair_cache_hits",
                                               "ncpoly.rewrite_steps")
    out["kernels.keep_ratio"] = ratio("kernels.init_terms_kept",
                                      "kernels.init_terms_in")
    out["scalars.mul_monomial_share"] = ratio("scalars.mul_mono", "scalars.mul_calls")
    ops = counts.get("scalars.mul_calls", 0) + counts.get("scalars.add_calls", 0)
    out["scalars.den_share"] = counts.get("scalars.den_ops", 0) / ops if ops else 0.0
    out["scalars.max_num_len"] = summary["max_num_len"]
    out["kernels.poisson_build_s"] = build_time(spans, "kernels.poisson_kernel",
                                                "kernels.substitute")
    out["suites.concurrent_s"] = overlap_time(
        [(start, end) for _, name, start, end, _ in spans
         if name.startswith("suites.")])
    out["cli.threads"] = summary["threads"]
    return out
