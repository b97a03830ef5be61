"""Majorization penalty training loop.

The model minimizes 0.5||omega||^2 subject to a budget: at most s samples may
violate the unit margin. The budget constraint enters through the penalty
p(theta) = g(1 - Qbar theta), half the squared distance of the margin vector
to the budget set, weighted by rho. Each outer iteration majorizes p at the
current iterate using the deterministic projection, which turns the step into
one strongly convex quadratic solve:

    (P^T P + rho Q^T Q) theta = rho Qbar^T (1 - Pi(1 - Qbar theta_k))

solved densely for narrow data and by matrix-free CG otherwise.

Stopping follows two progress measures. f_prog is used signed, exactly as
defined: a negative value (f increased) passes its threshold trivially, so
the conjunction with p_prog carries the real convergence burden.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import SparseDataset
from .linsys import CgConfig, RegularizedNormalOperator, cg_solve, dense_solve
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
    "mpm_train",
    "objective_components",
    "p_prog",
]

logger = logging.getLogger(__name__)

# Ceiling for the optional geometric penalty schedule. Growth saturates here
# instead of running into float overflow inside the normal operator.
RHO_CAP = 1e200


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

        def write(fh):
            fh.write(f"{self.m} {self.b!r}\n")
            for i in np.flatnonzero(self.omega != 0.0):
                fh.write(f"{i} {self.omega[i].item()!r}\n")

        if hasattr(target, "write"):
            write(target)
        else:
            with Path(target).open("w", encoding="ascii") as fh:
                write(fh)

    @classmethod
    def load(cls, source) -> "ModelTheta":
        def read(fh, name):
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError(f"{name}: malformed model header")
            try:
                m = int(header[0])
                b = float(header[1])
            except ValueError:
                raise ValueError(f"{name}: malformed model header") from None
            omega = np.zeros(m)
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
                omega[idx] = val
            return cls(omega, b)

        if hasattr(source, "readline"):
            return read(source, getattr(source, "name", "<stream>"))
        path = Path(source)
        with path.open("r", encoding="ascii") as fh:
            return read(fh, str(path))


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
        if self.s is not None and (isinstance(self.s, bool) or self.s < 0):
            raise ValueError(f"budget s must be a nonnegative integer, got {self.s}")
        if self.sr is not None and not 0.0 <= self.sr <= 1.0:
            raise ValueError(f"budget ratio sr must lie in [0, 1], got {self.sr}")
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not (self.f_tol_factor > 0.0 and self.p_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.rho_growth < 1.0:
            raise ValueError("rho_growth must be >= 1")

    def resolve_budget(self, n: int) -> int:
        """Budget as an integer; sr maps through round-half-up."""
        if self.s is not None:
            if self.s > n:
                raise ValueError(f"budget s={self.s} exceeds the sample count {n}")
            return int(self.s)
        return int(math.floor(self.sr * n + 0.5))


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


@dataclass(frozen=True)
class TrainReport:
    outer_iters: int
    total_cg: int
    wall_time_s: float
    termination: str  # "converged" | "max_outer"
    budget: int
    rho_final: float
    tie_at_termination: bool
    history: tuple[IterationRecord, ...]

    def objective_history(self) -> np.ndarray:
        return np.array([rec.objective for rec in self.history])

    def as_dict(self) -> dict:
        def scrub(v):
            if isinstance(v, float) and not math.isfinite(v):
                return repr(v)
            return v

        return {
            "outer_iters": self.outer_iters,
            "total_cg": self.total_cg,
            "wall_time_s": self.wall_time_s,
            "termination": self.termination,
            "budget": self.budget,
            "rho_final": self.rho_final,
            "tie_at_termination": self.tie_at_termination,
            "history": [
                {
                    "k": rec.k,
                    "objective": rec.objective,
                    "f_value": rec.f_value,
                    "penalty": rec.penalty,
                    "f_progress": scrub(rec.f_progress),
                    "p_progress": scrub(rec.p_progress),
                    "cg_iterations": rec.cg_iterations,
                    "solver_residual": rec.solver_residual,
                }
                for rec in self.history
            ],
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.as_dict(), indent=indent, allow_nan=False)


def margin(theta: ModelTheta, ds: SparseDataset) -> np.ndarray:
    """z_i = 1 - y_i (omega . x_i + b)."""
    if theta.m != ds.m:
        raise ValueError(f"model has {theta.m} features, dataset has {ds.m}")
    return _margin(theta.omega, theta.b, ds)


def _margin(omega: np.ndarray, b: float, ds: SparseDataset) -> np.ndarray:
    return 1.0 - ds.labels * (ds.matrix() @ omega + b)


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
    return _rhs(project_omega_s(z, s).projected, ds, cfg.rho)


def _rhs(projected: np.ndarray, ds: SparseDataset, rho: float) -> np.ndarray:
    yu = ds.labels * (1.0 - projected)
    rhs = np.empty(ds.m + 1)
    rhs[:ds.m] = rho * (ds.matrix_t() @ yu)
    rhs[ds.m] = rho * yu.sum()
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


def mpm_train(ds: SparseDataset, cfg: MpmConfig) -> tuple[ModelTheta, TrainReport]:
    """Run the outer loop from theta = 0 until both progress measures pass.

    Returns the final model and the full per-iteration report. Hitting
    max_outer reports termination="max_outer" instead of raising.
    """
    if ds.n == 0:
        raise ValueError("cannot train on an empty dataset (n = 0)")
    ds.assert_signed()
    n, m = ds.n, ds.m
    s = cfg.resolve_budget(n)
    rho = cfg.rho
    op = RegularizedNormalOperator(ds, rho)
    use_dense = m < cfg.dense_threshold
    f_threshold = math.sqrt(n) * cfg.f_tol_factor

    theta = np.zeros(m + 1)
    f_prev = 0.0
    proj = project_omega_s(np.ones(n), s)
    history = [
        IterationRecord(0, rho * proj.dist_sq, 0.0, proj.dist_sq, None, None, 0, None)
    ]
    total_cg = 0
    termination = "max_outer"
    start = time.perf_counter()
    for k in range(1, cfg.max_outer + 1):
        rhs = _rhs(proj.projected, ds, rho)
        if use_dense:
            outcome = dense_solve(op, rhs)
        else:
            guess = theta if (cfg.cg_warm_start and k > 1) else None
            outcome = cg_solve(op, rhs, cfg.cg, x0=guess)
        theta = outcome.theta
        proj = project_omega_s(_margin(theta[:m], theta[m], ds), s)
        f_curr = 0.5 * float(theta[:m] @ theta[:m])
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
            op = RegularizedNormalOperator(ds, rho)
    wall = time.perf_counter() - start

    tie = proj.partition.has_ambiguous_tie()
    if tie:
        logger.warning(
            "projection tie at termination: %d equal margin entries competed"
            " for the last budget slot; the lowest-index rule decided",
            proj.partition.pivot_kept.size + proj.partition.pivot_dropped.size,
        )
    model = ModelTheta(theta[:m].copy(), float(theta[m]))
    report = TrainReport(
        outer_iters=history[-1].k,
        total_cg=total_cg,
        wall_time_s=wall,
        termination=termination,
        budget=s,
        rho_final=rho,
        tie_at_termination=tie,
        history=tuple(history),
    )
    return model, report
