"""Outside-in span tracer for the benchmark.

The program is not instrumented. Instead, `traced(tracer)` replaces each
public function the layers are called through with a wrapper that records a
span (name, start, end, parent) in memory, and restores the originals on
exit. A function is replaced wherever it is looked up: every `orderone`
module that binds it by name, plus the `numpy.linalg` and `scipy.linalg`
entry points that `operator` and `scenarios` call, so factorisations reached
through a name bound elsewhere (the gate eigensolve inside
`exp_q_moment_guard`) are still seen.

Input hashing and operation counting run inside the wrappers, outside the
span clock: the tracer's clock stops while they run, so they inflate no span.
They still cost real time, which `trace.overhead` shows.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

# functions wrapped in each `orderone.<layer>` module; span name "<layer>.<function>"
LAYER_FUNCTIONS = {
    "grid_kernel": ("eta_of_kappa", "compose_kernels", "c_kernels", "kernel_zoo"),
    "operator": ("lambda_max", "det2", "det2_matrix", "inverse_kernel", "kappa_s", "assemble"),
    "stochastic": (
        "sample_paths", "wiener_integral", "apply_transformation", "quadratic_form",
        "h_functionals", "cameron_martin_drift", "apply_linear_transformation",
        "cm_exponent", "exp_q_moment_guard",
    ),
    "scenarios": (
        "verify_transf", "verify_inverse", "verify_surjective", "sweep_laplace",
        "verify_harmonic", "verify_cameron_martin", "verify_gencv_example",
        "verify_integrability_bound",
    ),
    "cli": ("main", "parse_config"),
}
# det2 reaches LAPACK through det2_matrix; both count as one operator step
SPAN_ALIASES = {"operator.det2_matrix": "operator.det2"}

# LAPACK-boundary entry points and the leading-order flop count of each for
# an n x n input with k right-hand sides (the textbook counts of Golub and
# Van Loan, Matrix Computations); computed from shapes, so cache behaviour is
# ignored.
LINALG_FLOPS = {
    (np.linalg, "eigvalsh"): lambda n, k: 4 * n**3 / 3,
    (np.linalg, "eigh"): lambda n, k: 9 * n**3,
    (np.linalg, "solve"): lambda n, k: 2 * n**3 / 3 + 2 * n**2 * k,
    (np.linalg, "slogdet"): lambda n, k: 2 * n**3 / 3,
    (scipy.linalg, "lu_factor"): lambda n, k: 2 * n**3 / 3,
    (scipy.linalg, "svdvals"): lambda n, k: 8 * n**3 / 3,
}

# dense (M, Nd) x (Nd, Nd) products per call of a path functional
DENSE_PRODUCTS = {
    "wiener_integral": 1, "quadratic_form": 1, "cameron_martin_drift": 1, "cm_exponent": 2,
}

ORDERONE_MODULES = (
    "orderone", "orderone.grid_kernel", "orderone.operator", "orderone.stochastic",
    "orderone.scenarios", "orderone.cli",
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, nested in same name]
        self._stack = []
        self._active = Counter()
        self._paused = 0.0
        self.linalg_keys = []  # content digest of each factorised matrix
        self.path_keys = []  # (seed, stream, shape) of each sample_paths call
        self.normals = 0
        self.linalg_flops = 0.0
        self.dense_flops = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def bookkeeping(self):
        """Run hashing or counting with the span clock stopped."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.now(), None, parent, self._active[name] > 0])
        self._stack.append(index)
        self._active[name] += 1
        try:
            yield
        finally:
            self.spans[index][2] = self.now()
            self._stack.pop()
            self._active[name] -= 1

    def summary(self) -> dict:
        """Per-name inclusive time and call count, per-span self time."""
        inclusive = defaultdict(float)
        calls = Counter()
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, nested) in enumerate(self.spans):
            calls[name] += 1
            if not nested:
                inclusive[name] += end - start
            self_time[name] += (end - start) - child_time[i]
        return {"inclusive": inclusive, "calls": calls, "self": self_time}


def _matrix_digest(a) -> bytes:
    a = np.ascontiguousarray(a)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    h.update(memoryview(a).cast("B"))
    return h.digest()


def _bind(fn, args, kwargs) -> dict:
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


def _account_linalg(tracer, fn, flops):
    def account(args, kwargs):
        call = _bind(fn, args, kwargs)
        a, b = np.asarray(call["a"]), call.get("b")
        tracer.linalg_keys.append(_matrix_digest(a))
        k = np.shape(b)[-1] if np.ndim(b) > 1 else 1
        tracer.linalg_flops += flops(a.shape[-1], k)
    return account


def _account_paths(tracer, fn):
    def account(args, kwargs):
        call = _bind(fn, args, kwargs)
        grid, dim, n_paths = call["grid"], int(call["dim"]), int(call["n_paths"])
        stream = tuple(int(s) for s in call["stream"])
        tracer.path_keys.append((int(call["seed"]), stream, n_paths, grid.n_steps,
                                 grid.horizon, dim))
        tracer.normals += n_paths * grid.n_steps * dim
    return account


def _account_dense(tracer, fn, products):
    def account(args, kwargs):
        kernel, batch = list(_bind(fn, args, kwargs).values())[:2]
        nd = kernel.grid.n_steps * kernel.dim
        tracer.dense_flops += products * 2.0 * batch.increments.shape[0] * nd * nd
    return account


def _wrap(tracer, name, fn, account=None):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        if account is not None:
            with tracer.bookkeeping():
                account(args, kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install wrappers around every layer entry point; restore on exit."""
    modules = [importlib.import_module(m) for m in ORDERONE_MODULES]
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"orderone.{layer}")
            for fname in names:
                original = getattr(home, fname)
                span = f"{layer}.{fname}"
                account = None
                if span == "stochastic.sample_paths":
                    account = _account_paths(tracer, original)
                elif layer == "stochastic" and fname in DENSE_PRODUCTS:
                    account = _account_dense(tracer, original, DENSE_PRODUCTS[fname])
                wrapper = _wrap(tracer, SPAN_ALIASES.get(span, span), original, account)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patch(module, attr, wrapper)
        functional = importlib.import_module("orderone.stochastic").TestFunctional
        patch(functional, "evaluate",
              _wrap(tracer, "stochastic.evaluate", functional.evaluate))
        for (owner, fname), flops in LINALG_FLOPS.items():
            original = getattr(owner, fname)
            patch(owner, fname, _wrap(tracer, f"linalg.{fname}", original,
                                      _account_linalg(tracer, original, flops)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# path functionals: every stochastic span except sampling and the moment guard
_NOT_FUNCTIONALS = {"stochastic.sample_paths", "stochastic.exp_q_moment_guard"}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    s = tracer.summary()
    inc, calls, self_t = s["inclusive"], s["calls"], s["self"]
    out = {}
    for name in ("grid_kernel.eta_of_kappa", "grid_kernel.compose_kernels",
                 "operator.lambda_max", "stochastic.sample_paths"):
        out[f"{name}.calls"] = calls[name]
    for name in ("grid_kernel.eta_of_kappa", "grid_kernel.compose_kernels",
                 "grid_kernel.c_kernels", "grid_kernel.kernel_zoo",
                 "operator.lambda_max", "operator.det2", "operator.inverse_kernel",
                 "operator.kappa_s", "operator.assemble"):
        out[f"{name}.s"] = inc[name]
    for fname in ("eigvalsh", "eigh", "lu_factor", "solve", "slogdet"):
        out[f"linalg.{fname}.calls"] = calls[f"linalg.{fname}"]
    out["linalg.s"] = sum(t for n, t in inc.items() if n.startswith("linalg."))
    n_fact = len(tracer.linalg_keys)
    out["linalg.distinct_ratio"] = len(set(tracer.linalg_keys)) / n_fact if n_fact else 1.0
    out["linalg.flops_computed"] = tracer.linalg_flops

    sampling = inc["stochastic.sample_paths"]
    out["stochastic.sample_paths.s"] = sampling
    out["stochastic.sample_paths.normals_per_s"] = tracer.normals / sampling if sampling else 0.0
    n_draws = len(tracer.path_keys)
    out["stochastic.sample_paths.distinct_ratio"] = (
        len(set(tracer.path_keys)) / n_draws if n_draws else 1.0
    )
    for fname in ("wiener_integral", "quadratic_form", "h_functionals", "apply_transformation",
                  "cm_exponent", "apply_linear_transformation", "exp_q_moment_guard"):
        out[f"stochastic.{fname}.s"] = inc[f"stochastic.{fname}"]
    functional_self = sum(t for n, t in self_t.items()
                          if n.startswith("stochastic.") and n not in _NOT_FUNCTIONALS)
    out["stochastic.functional_to_sampling"] = functional_self / sampling if sampling else 0.0
    out["stochastic.dense_flops_computed"] = tracer.dense_flops

    for fname in LAYER_FUNCTIONS["scenarios"]:
        out[f"scenarios.{fname}.s"] = inc[f"scenarios.{fname}"]
    out["scenarios.self_s"] = sum(t for n, t in self_t.items() if n.startswith("scenarios."))
    verify_total = sum(end - start for name, start, end, parent, _ in tracer.spans
                       if name.startswith("scenarios.") and not _under_scenario(tracer, parent))
    stochastic_self = sum(t for n, t in self_t.items() if n.startswith("stochastic."))
    out["scenarios.mc_share"] = stochastic_self / verify_total if verify_total else 0.0

    out["cli.parse_config.s"] = inc["cli.parse_config"]
    out["cli.main.self_s"] = self_t["cli.main"]
    return out


def _under_scenario(tracer: Tracer, index: int) -> bool:
    while index >= 0:
        if tracer.spans[index][0].startswith("scenarios."):
            return True
        index = tracer.spans[index][3]
    return False


def unit_of(key: str) -> str:
    if key.endswith(".calls"):
        return "count"
    if key.endswith("_computed"):
        return "flop"
    if key.endswith("normals_per_s"):
        return "1/s"
    if key.endswith(".s") or key.endswith("self_s"):
        return "s"
    return "ratio"
