"""Majorization penalty training loop.

The model minimizes 0.5||omega||^2 subject to a budget: at most s samples may
violate the unit margin. The budget constraint enters through the penalty
p(theta) = g(1 - Qbar theta), half the squared distance of the margin vector
to the budget set, weighted by rho. Each outer iteration majorizes p at the
current iterate using the deterministic projection, which turns the step into
one strongly convex quadratic solve:

    (P^T P + rho Q^T Q) theta = rho Qbar^T (1 - Pi(1 - Qbar theta_k))

solved densely for narrow data and by matrix-free CG otherwise. The solve
path, and the form of A that the loop's products use, are chosen once per
training call (see matrix_forms). On the CG path, with at least
_SPLIT_MIN_NNZ stored entries and a helper thread from scsvm.threads.helper,
every product with A and A^T is computed in two row halves, one on the
helper, with the same bits as on one thread.

Stopping follows two progress measures. f_prog is used signed, exactly as
defined: a negative value (f increased) passes its threshold trivially, so
the conjunction with p_prog carries the real convergence burden.

Each outer step is a deterministic map of the loop state (theta, rho): the
projection, f_prev and the warm-start guess are functions of theta, the
operator and its cached factor a function of rho. Once the state comes back
bit for bit after one or two steps, every later step is known, and the rest of
the run up to max_outer is filled in from the history instead of computed.
"""

from __future__ import annotations

import json
import logging
import math
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

from . import threads
from .blas import one_thread
from .data import SparseDataset, text_file
from .linsys import CgConfig, RegularizedNormalOperator, SplitCsr, cg_solve, dense_solve, is_count
from .projection import g_value, project_omega_s

__all__ = [
    "IterationRecord",
    "ModelTheta",
    "MpmConfig",
    "TrainReport",
    "f_prog",
    "majorization_rhs",
    "majorized_penalty",
    "margin",
    "matrix_forms",
    "mpm_train",
    "objective_components",
    "p_prog",
]

logger = logging.getLogger(__name__)

# Ceiling for the optional geometric penalty schedule. Growth saturates here
# instead of running into float overflow inside the normal operator.
RHO_CAP = 1e200

# The CG path splits its products across two threads from this many stored
# entries of A on. Below it, handing half of each product to the helper costs
# about as much as it saves (see README, "Solver paths").
_SPLIT_MIN_NNZ = 100_000


@dataclass(frozen=True)
class ModelTheta:
    """Stacked linear model theta = [omega; b]."""

    omega: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=np.float64))
        object.__setattr__(self, "b", float(self.b))
        if self.omega.ndim != 1:
            raise ValueError("omega must be a vector")
        if not (np.all(np.isfinite(self.omega)) and np.isfinite(self.b)):
            raise ValueError("model entries must be finite")

    @property
    def m(self) -> int:
        return self.omega.size

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.omega, [self.b]])

    @classmethod
    def from_vector(cls, theta: np.ndarray) -> "ModelTheta":
        theta = np.asarray(theta, dtype=np.float64)
        return cls(theta[:-1].copy(), float(theta[-1]))

    def save(self, target) -> None:
        """Text format: header "m b", one "index value" line per nonzero of
        omega (0-based indices); floats as shortest round-trip decimals."""
        with text_file(target, "w") as (fh, _):
            fh.write(f"{self.m} {self.b!r}\n")
            for i in np.flatnonzero(self.omega != 0.0):
                fh.write(f"{i} {self.omega[i].item()!r}\n")

    @classmethod
    def load(cls, source) -> "ModelTheta":
        with text_file(source) as (fh, name):
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError(f"{name}: malformed model header")
            try:
                m = int(header[0])
                b = float(header[1])
            except ValueError:
                raise ValueError(f"{name}: malformed model header") from None
            if m < 0:
                raise ValueError(f"{name}: malformed model header")
            omega = np.zeros(m)
            seen = set()
            for lineno, line in enumerate(fh, start=2):
                tokens = line.split()
                if not tokens:
                    continue
                if len(tokens) != 2:
                    raise ValueError(f"{name}, line {lineno}: expected 'index value'")
                try:
                    idx = int(tokens[0])
                    val = float(tokens[1])
                except ValueError:
                    raise ValueError(f"{name}, line {lineno}: expected 'index value'") from None
                if not 0 <= idx < m:
                    raise ValueError(f"{name}, line {lineno}: index {idx} outside [0, {m})")
                if idx in seen:
                    raise ValueError(f"{name}, line {lineno}: index {idx} repeats")
                seen.add(idx)
                omega[idx] = val
        return cls(omega, b)


@dataclass(frozen=True)
class MpmConfig:
    """Training controls. Exactly one of s (budget) or sr (budget ratio).

    Defaults follow the reference protocol: rho fixed at 0.4, stopping when
    f_prog <= sqrt(n) * f_tol_factor and p_prog <= p_tol, outer cap 1000,
    dense direct solves below 100 features, CG with zero initial guess
    otherwise. rho_growth > 1 enables a geometric penalty-hardening schedule
    (off by default); cg_warm_start starts CG from the previous iterate
    instead of zero (off by default).
    """

    s: int | None = None
    sr: float | None = None
    rho: float = 0.4
    f_tol_factor: float = 1e-3
    p_tol: float = 1e-3
    max_outer: int = 1000
    cg: CgConfig = field(default_factory=CgConfig)
    dense_threshold: int = 100
    rho_growth: float = 1.0
    cg_warm_start: bool = False

    def __post_init__(self):
        if (self.s is None) == (self.sr is None):
            raise ValueError("exactly one of s and sr must be given")
        if self.s is not None and not is_count(self.s, 0):
            raise ValueError(f"budget s must be a nonnegative integer, got {self.s}")
        if self.sr is not None and not 0.0 <= self.sr <= 1.0:
            raise ValueError(f"budget ratio sr must lie in [0, 1], got {self.sr}")
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not (self.f_tol_factor > 0.0 and self.p_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not is_count(self.max_outer, 1):
            raise ValueError(f"max_outer must be an integer >= 1, got {self.max_outer}")
        if not self.rho_growth >= 1.0:
            raise ValueError(f"rho_growth must be >= 1, got {self.rho_growth}")

    def resolve_budget(self, n: int) -> int:
        """Budget as an integer; sr maps through round-half-up."""
        if self.s is not None:
            if self.s > n:
                raise ValueError(f"budget s={self.s} exceeds the sample count {n}")
            return int(self.s)
        return int(math.floor(self.sr * n + 0.5))


def _fields_as_json(record) -> dict:
    """A frozen dataclass's fields in declaration order, with every non-finite
    float spelled as its repr ("inf", "-inf", "nan"), which strict JSON has no
    token for. Read by name: vars() would make each record build and keep an
    instance dict."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            value = repr(float(value))
        out[f.name] = value
    return out


@dataclass(frozen=True)
class IterationRecord:
    k: int
    objective: float        # F_rho = f + rho * p
    f_value: float
    penalty: float
    f_progress: float | None
    p_progress: float | None
    cg_iterations: int
    solver_residual: float | None

    def at_k(self, k: int) -> "IterationRecord":
        """This record with k changed, as a replayed iteration records it:
        dataclasses.replace without its per-call walk over the fields."""
        return IterationRecord(
            k, self.objective, self.f_value, self.penalty, self.f_progress,
            self.p_progress, self.cg_iterations, self.solver_residual,
        )


@dataclass(frozen=True)
class TrainReport:
    outer_iters: int
    total_cg: int
    wall_time_s: float
    termination: str  # "converged" | "max_outer"
    solve_path: str  # "dense" | "cg"
    budget: int
    rho_final: float
    tie_at_termination: bool
    repeat_k: int | None  # first k whose state (theta, rho) equals an earlier one
    repeat_period: int | None  # 1 (fixed point) or 2 (2-cycle)
    history: tuple[IterationRecord, ...]

    def objective_history(self) -> np.ndarray:
        return np.array([rec.objective for rec in self.history])

    def as_dict(self) -> dict:
        """Every field by name, in declaration order; history as one dict
        per IterationRecord."""
        out = _fields_as_json(self)
        out["history"] = [_fields_as_json(rec) for rec in self.history]
        return out

    def to_json(self, indent=None) -> str:
        return json.dumps(self.as_dict(), indent=indent, allow_nan=False)


def margin(theta: ModelTheta, ds: SparseDataset) -> np.ndarray:
    """z_i = 1 - y_i (omega . x_i + b)."""
    if theta.m != ds.m:
        raise ValueError(f"model has {theta.m} features, dataset has {ds.m}")
    return _margin(theta.omega, theta.b, ds.labels, ds.matrix())


def _margin(omega: np.ndarray, b: float, labels: np.ndarray, a) -> np.ndarray:
    # 1 - y * (A omega + b), in place in the product's fresh array
    z = a @ omega
    z += b
    z *= labels
    return np.subtract(1.0, z, out=z)


def objective_components(theta: ModelTheta, ds: SparseDataset, cfg: MpmConfig):
    """(f, p, F_rho): ridge term, budget-set distance penalty, their sum."""
    s = cfg.resolve_budget(ds.n)
    f = 0.5 * float(theta.omega @ theta.omega)
    p = g_value(margin(theta, ds), s)
    return f, p, f + cfg.rho * p


def majorization_rhs(theta_k: ModelTheta, ds: SparseDataset, cfg: MpmConfig) -> np.ndarray:
    """rho * Qbar^T (1 - Pi(1 - Qbar theta_k)), built matrix-free."""
    s = cfg.resolve_budget(ds.n)
    z = margin(theta_k, ds)
    return _rhs(project_omega_s(z, s).projected, ds.labels, ds.matrix_t(), cfg.rho)


def _rhs(projected: np.ndarray, labels: np.ndarray, at, rho: float) -> np.ndarray:
    # rho * [A^T yu; sum(yu)] with yu = y * (1 - projected), built in place
    yu = 1.0 - projected
    yu *= labels
    rhs = np.empty(at.shape[0] + 1)
    np.multiply(at @ yu, rho, out=rhs[:-1])
    rhs[-1] = rho * np.add.reduce(yu)
    return rhs


def majorized_penalty(theta: ModelTheta, theta_ref: ModelTheta, ds: SparseDataset, s: int) -> float:
    """Surrogate penalty p_m(theta, theta_ref) = 0.5||z_theta - Pi(z_ref)||^2.

    This squared-distance form equals the textbook expansion
    0.5||z_theta||^2 - h(ref) + <Qbar^T Pi(z_ref), theta - ref> exactly (the
    cross terms cancel through the projection's exact complementarity) but
    stays accurate when the penalty is tiny.
    """
    z = margin(theta, ds)
    anchor = project_omega_s(margin(theta_ref, ds), s).projected
    diff = z - anchor
    return 0.5 * float(diff @ diff)


def f_prog(f_prev: float, f_curr: float, rho: float) -> float:
    """Relative objective progress (f(prev) - f(curr)) / (rho + f(prev)).

    Used signed: negative means f increased.
    """
    return (f_prev - f_curr) / (rho + f_prev)


def p_prog(theta_vec: np.ndarray, p_k: float) -> float:
    """Scaled infeasibility 2 p / ||theta||^2.

    Feasible points report 0 regardless of theta; an all-zero theta with
    positive penalty reports +inf (not converged).
    """
    if p_k == 0.0:
        return 0.0
    norm_sq = float(np.dot(theta_vec, theta_vec))
    if norm_sq == 0.0:
        return float("inf")
    return 2.0 * p_k / norm_sq


def matrix_forms(ds: SparseDataset, dense: bool, helper: threads.Helper | None = None):
    """(A, A^T) in the form the training loop multiplies.

    With a dense solve, A becomes a C-contiguous ndarray with A^T as its
    view, so every product is a BLAS gemv, provided that array takes no more
    memory than the CSR arrays it replaces. On the CG path with a helper
    thread, they are SplitCsr products over the dataset's CSR form and a CSR
    copy of A^T, which give the bits of the cached forms. Otherwise they are
    the dataset's cached CSR and CSC forms.
    """
    csr_bytes = ds.values.nbytes + ds.col_idx.nbytes + ds.row_ptr.nbytes
    if dense and 8 * ds.n * ds.m <= csr_bytes:
        a = ds.matrix().toarray()
        return a, a.T
    if not dense and helper is not None:
        return SplitCsr(ds.matrix(), helper), SplitCsr(ds.matrix_t().tocsr(), helper)
    return ds.matrix(), ds.matrix_t()


@one_thread()
def mpm_train(ds: SparseDataset, cfg: MpmConfig) -> tuple[ModelTheta, TrainReport]:
    """Run the outer loop from theta = 0 until both progress measures pass.

    Returns the final model and the full per-iteration report. Hitting
    max_outer reports termination="max_outer" instead of raising. BLAS runs
    on one thread meanwhile (see scsvm.blas), so the model does not depend on
    the BLAS thread count. A large enough CG problem computes its sparse
    products on this thread and on a helper thread leased for the call from
    scsvm.threads.helper, if it gets one; the model, the counts and the
    history are the same bits as on one thread.
    """
    if ds.n == 0:
        raise ValueError("cannot train on an empty dataset (n = 0)")
    ds.assert_signed()
    use_dense = ds.m < cfg.dense_threshold
    split = not use_dense and ds.nnz >= _SPLIT_MIN_NNZ
    with threads.helper() if split else nullcontext() as helper:
        return _train(ds, cfg, use_dense, matrix_forms(ds, use_dense, helper))


def _train(ds: SparseDataset, cfg: MpmConfig, use_dense: bool, forms):
    """The outer loop of mpm_train, multiplying the (A, A^T) forms given."""
    n, m = ds.n, ds.m
    s = cfg.resolve_budget(n)
    rho = cfg.rho
    a, at = forms
    op = RegularizedNormalOperator(ds, rho, forms)
    f_threshold = math.sqrt(n) * cfg.f_tol_factor

    theta = np.zeros(m + 1)
    f_prev = 0.0
    proj = project_omega_s(np.ones(n), s)
    history = [
        IterationRecord(0, rho * proj.dist_sq, 0.0, proj.dist_sq, None, None, 0, None)
    ]
    total_cg = 0
    termination = "max_outer"
    # (state, theta, proj) after each of the last two iterations
    recent = deque(maxlen=2)
    repeat_k = repeat_period = None
    start = time.perf_counter()
    labels = ds.labels
    for k in range(1, cfg.max_outer + 1):
        rhs = _rhs(proj.projected, labels, at, rho)
        if use_dense:
            outcome = dense_solve(op, rhs)
        else:
            guess = theta if (cfg.cg_warm_start and k > 1) else None
            outcome = cg_solve(op, rhs, cfg.cg, x0=guess)
        theta = outcome.theta
        omega = theta[:m]
        proj = project_omega_s(_margin(omega, theta[m], labels, a), s)
        f_curr = 0.5 * float(omega @ omega)
        p_curr = proj.dist_sq
        objective = f_curr + rho * p_curr
        if not math.isfinite(objective):
            raise np.linalg.LinAlgError(
                f"objective became non-finite at iteration {k}"
            )
        fp = f_prog(f_prev, f_curr, rho)
        pp = p_prog(theta, p_curr)
        total_cg += outcome.iterations
        history.append(
            IterationRecord(
                k, objective, f_curr, p_curr, fp, pp,
                outcome.iterations, outcome.final_residual,
            )
        )
        f_prev = f_curr
        if fp <= f_threshold and pp <= cfg.p_tol:
            termination = "converged"
            break
        if cfg.rho_growth > 1.0 and pp > cfg.p_tol and rho < RHO_CAP:
            rho = min(rho * cfg.rho_growth, RHO_CAP)
            op = op.with_rho(rho)
        state = (theta.tobytes(), rho)
        for repeat_period, (seen, _, _) in enumerate(reversed(recent), start=1):
            if seen == state:
                break
        else:
            repeat_period = None
        if repeat_period is not None:
            # iteration j > k repeats iteration j - period, up to max_outer
            repeat_k = k
            for j in range(k + 1, cfg.max_outer + 1):
                record = history[j - repeat_period].at_k(j)
                history.append(record)
                total_cg += record.cg_iterations
            if (cfg.max_outer - k) % repeat_period:
                _, theta, proj = recent[-1]
            break
        recent.append((state, theta, proj))
    wall = time.perf_counter() - start

    tie = proj.ties > 0
    if tie:
        logger.warning(
            "projection tie at termination: %d equal margin entries competed"
            " for the last budget slot; the lowest-index rule decided",
            proj.ties,
        )
    model = ModelTheta(theta[:m].copy(), float(theta[m]))
    report = TrainReport(
        outer_iters=history[-1].k,
        total_cg=total_cg,
        wall_time_s=wall,
        termination=termination,
        solve_path="dense" if use_dense else "cg",
        budget=s,
        rho_final=rho,
        tie_at_termination=tie,
        repeat_k=repeat_k,
        repeat_period=repeat_period,
        history=tuple(history),
    )
    return model, report
