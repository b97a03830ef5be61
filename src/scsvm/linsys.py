"""The regularized normal system behind each training step.

Every outer iteration solves (P^T P + rho Q^T Q) theta = rhs where
P = [I 0] strips the bias and Q = [A 1] appends it. The operator is applied
matrix-free: Q^T Q is never formed, only products with the dataset's cached
A (CSR) and its transpose view A^T (CSC). For narrow problems a dense
Cholesky factorization of the same matrix is cheaper than iterating; it is
cached because the matrix depends only on the data and rho, not on the
iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import SparseDataset

__all__ = ["CgConfig", "RegularizedNormalOperator", "SolveOutcome", "cg_solve", "dense_solve"]


@dataclass(frozen=True)
class CgConfig:
    """Conjugate gradient controls: absolute residual tolerance and a cap."""

    tol: float = 1e-3
    max_iter: int = 500

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class SolveOutcome:
    theta: np.ndarray
    iterations: int
    final_residual: float
    converged: bool


class RegularizedNormalOperator:
    """theta -> [omega; 0] + rho * Q^T (Q theta), applied matrix-free."""

    def __init__(self, dataset: SparseDataset, rho: float):
        if not rho > 0.0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.dataset = dataset
        self.rho = float(rho)
        self.dim = dataset.m + 1
        self._a = dataset.matrix()
        self._at = dataset.matrix_t()
        self._cho = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {v.shape}")
        m = self.dim - 1
        qv = self._a @ v[:m] + v[m]
        out = np.empty(self.dim)
        out[:m] = v[:m] + self.rho * (self._at @ qv)
        out[m] = self.rho * qv.sum()
        return out

    def dense_matrix(self) -> np.ndarray:
        """Materialize P^T P + rho Q^T Q; meant for narrow problems."""
        m = self.dim - 1
        mat = np.zeros((self.dim, self.dim))
        mat[:m, :m] = np.eye(m) + self.rho * (self._at @ self._a).toarray()
        col = np.asarray(self._a.sum(axis=0)).ravel()
        mat[:m, m] = self.rho * col
        mat[m, :m] = self.rho * col
        mat[m, m] = self.rho * self.dataset.n
        return mat

    def _factorization(self):
        if self._cho is None:
            self._cho = scipy.linalg.cho_factor(self.dense_matrix())
        return self._cho


def dense_solve(op: RegularizedNormalOperator, rhs: np.ndarray) -> SolveOutcome:
    """Direct SPD solve through a cached Cholesky factorization."""
    rhs = np.asarray(rhs, dtype=np.float64)
    theta = scipy.linalg.cho_solve(op._factorization(), rhs)
    residual = float(np.linalg.norm(rhs - op.apply(theta)))
    return SolveOutcome(theta=theta, iterations=0, final_residual=residual, converged=True)


def cg_solve(op, rhs: np.ndarray, cfg: CgConfig = CgConfig(), x0=None, callback=None) -> SolveOutcome:
    """Unpreconditioned conjugate gradients on the normal operator.

    Stops when the 2-norm of the residual drops to cfg.tol (absolute), or
    after cfg.max_iter steps with converged=False. The initial guess is zero
    unless x0 is given. callback(x, residual_norm) runs once per iteration.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        r = rhs - op.apply(x)
    rs = float(r @ r)
    if not np.isfinite(rs):
        raise np.linalg.LinAlgError("non-finite residual in conjugate gradient")
    if np.sqrt(rs) <= cfg.tol:
        return SolveOutcome(x, 0, float(np.sqrt(rs)), True)
    d = r.copy()
    for it in range(1, cfg.max_iter + 1):
        ad = op.apply(d)
        dad = float(d @ ad)
        if not np.isfinite(dad) or dad <= 0.0:
            raise np.linalg.LinAlgError(
                f"conjugate gradient broke down (d^T A d = {dad}); the operator"
                " is not positive definite or the data is ill-conditioned"
            )
        alpha = rs / dad
        x += alpha * d
        r -= alpha * ad
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise np.linalg.LinAlgError("non-finite residual in conjugate gradient")
        if callback is not None:
            callback(x.copy(), float(np.sqrt(rs_new)))
        if np.sqrt(rs_new) <= cfg.tol:
            return SolveOutcome(x, it, float(np.sqrt(rs_new)), True)
        d = r + (rs_new / rs) * d
        rs = rs_new
    return SolveOutcome(x, cfg.max_iter, float(np.sqrt(rs)), False)
