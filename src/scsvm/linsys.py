"""The regularized normal system behind each training step.

Every outer iteration solves (P^T P + rho Q^T Q) theta = rhs where
P = [I 0] strips the bias and Q = [A 1] appends it. On the CG path the
operator is applied matrix-free: Q^T Q is never formed, only products with A
and A^T in the form the caller chose, the dataset's cached CSR/CSC pair by
default, a SplitCsr pair that computes each product on two threads, or an
ndarray and its transpose view. For narrow problems the matrix is
materialized and a dense Cholesky factorization of it is cheaper than
iterating. The matrix and its factor are cached per operator, because they
depend only on the data and rho, not on the iterate; the Gram matrix A^T A
inside them depends on the data alone and is shared with every with_rho copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import get_lapack_funcs
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .data import SparseDataset

__all__ = [
    "CgConfig",
    "RegularizedNormalOperator",
    "SolveOutcome",
    "SplitCsr",
    "cg_solve",
    "dense_solve",
]

# the LAPACK routine scipy.linalg.cho_solve calls, looked up once
(_POTRS,) = get_lapack_funcs(("potrs",), dtype=np.float64)

# cg_solve scales an rhs or guess with a larger entry down to below 1
_SCALE_ABOVE = 2.0**64


def is_count(value, least: int) -> bool:
    """Whether value is an integer (a numpy one too, a bool not) >= least."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= least


@dataclass(frozen=True)
class CgConfig:
    """Conjugate gradient controls: absolute residual tolerance and a cap."""

    tol: float = 1e-3
    max_iter: int = 500

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not is_count(self.max_iter, 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class SolveOutcome:
    theta: np.ndarray
    iterations: int
    final_residual: float
    converged: bool


class SplitCsr:
    """A CSR matrix whose product with a vector is computed in two row halves:
    the rows before the middle stored entry on the calling thread, the rest on
    a scsvm.threads.Helper, each through scipy's csr_matvec (which releases
    the GIL) into its slice of one zeroed output.

    Each output entry is summed by one thread, over its row's entries in
    stored order from zero, as csr_matrix @ v sums it, so the product has the
    same bits. Over a CSR copy of A^T, whose rows hold the samples in
    ascending order, it also has the bits of the CSC form's A^T @ q, which
    adds each sample's terms into the output in that order.
    """

    def __init__(self, a, helper):
        self.shape = a.shape
        rows, cols = a.shape
        ptr = a.indptr
        cut = int(np.searchsorted(ptr, ptr[-1] // 2))
        self._cut = cut
        # csr_matvec's arguments but the vector and the output, per half
        self._head = (cut, cols, ptr[: cut + 1], a.indices, a.data)
        self._tail = (rows - cut, cols, ptr[cut:], a.indices, a.data)
        self._helper = helper

    def __matmul__(self, v) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.shape != self.shape[1:]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {v.shape}")
        out = np.zeros(self.shape[0])
        cut = self._cut
        self._helper.start(_csr_matvec, (*self._tail, v, out[cut:]))
        try:
            _csr_matvec(*self._head, v, out[:cut])
        finally:
            self._helper.wait()
        return out


class RegularizedNormalOperator:
    """theta -> [omega; 0] + rho * Q^T (Q theta).

    forms is the (A, A^T) pair that apply multiplies: by default the
    dataset's cached CSR and CSC forms; a SplitCsr over A and one over a CSR
    copy of A^T give the same bits on two threads; an n x m ndarray and its
    transpose view make every product a BLAS gemv. Once dense_solve has
    factored the materialized matrix H, apply is H @ v instead.
    """

    def __init__(self, dataset: SparseDataset, rho: float, forms=None):
        if not rho > 0.0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.dataset = dataset
        self.rho = float(rho)
        self.dim = dataset.m + 1
        if forms is None:
            forms = (dataset.matrix(), dataset.matrix_t())
        self._a, self._at = forms
        self._gram = None  # (A^T A, column sums of A), shared by with_rho
        self._h = None
        self._cho = None

    def with_rho(self, rho: float) -> "RegularizedNormalOperator":
        """The same operator at another rho, sharing the forms and, once
        built, the Gram matrix."""
        op = RegularizedNormalOperator(self.dataset, rho, (self._a, self._at))
        op._gram = self._gram
        return op

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {v.shape}")
        if self._h is not None:
            return self._h @ v
        m = self.dim - 1
        qv = self._a @ v[:m]
        qv += v[m]
        aq = self._at @ qv
        aq *= self.rho
        out = np.empty(self.dim)
        np.add(v[:m], aq, out=out[:m])
        out[m] = self.rho * np.add.reduce(qv)
        return out

    def _gram_parts(self):
        """A^T A and the column sums of A, whatever form apply uses.

        On the ndarray form the Gram is the CSC x ndarray product
        matrix_t() @ A, which adds a_ki * a_kj over k in ascending order as
        the sparse matrix_t() @ matrix() does; the terms it adds beyond those
        are zeros, so the two give the same bits and the factor, and hence
        every dense solve, does not depend on the form.
        """
        if self._gram is None:
            ds = self.dataset
            a = ds.matrix()
            if isinstance(self._a, np.ndarray):
                gram = ds.matrix_t() @ self._a
            else:
                gram = (ds.matrix_t() @ a).toarray()
            self._gram = (gram, np.asarray(a.sum(axis=0)).ravel())
        return self._gram

    def dense_matrix(self) -> np.ndarray:
        """Materialize P^T P + rho Q^T Q; meant for narrow problems."""
        m = self.dim - 1
        gram, col = self._gram_parts()
        mat = np.zeros((self.dim, self.dim))
        mat[:m, :m] = np.eye(m) + self.rho * gram
        mat[:m, m] = self.rho * col
        mat[m, :m] = self.rho * col
        mat[m, m] = self.rho * self.dataset.n
        return mat

    def _factorization(self):
        if self._cho is None:
            h = self.dense_matrix()
            self._cho = scipy.linalg.cho_factor(h)
            self._h = h
        return self._cho


def dense_solve(op: RegularizedNormalOperator, rhs: np.ndarray) -> SolveOutcome:
    """Direct SPD solve through a cached Cholesky factorization.

    Calls LAPACK potrs on the factor directly: the call cho_solve makes,
    without its per-call argument handling, so theta is the same bits.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    # cho_factor checked the cached factor once; only the rhs is new
    if np.count_nonzero(np.isfinite(rhs)) < rhs.size:
        raise ValueError("array must not contain infs or NaNs")
    c, lower = op._factorization()
    theta, info = _POTRS(c, rhs, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    # rhs - H theta, in the array apply returns; nrm2 scales as it sums, so
    # a residual near the rho cap stays finite
    residual = op.apply(theta)
    np.subtract(rhs, residual, out=residual)
    return SolveOutcome(theta, 0, float(dnrm2(residual)), True)


def cg_solve(op, rhs: np.ndarray, cfg: CgConfig = CgConfig(), x0=None) -> SolveOutcome:
    """Unpreconditioned conjugate gradients on the normal operator.

    Stops when the 2-norm of the residual drops to cfg.tol (absolute), or
    after cfg.max_iter steps with converged=False. The initial guess is zero
    unless x0 is given.

    An rhs or guess with an entry above 2**64 is solved scaled down by a
    power of two, and the result scaled back. Scaling by a power of two
    changes no bits where nothing underflows, and it keeps d^T A d finite
    as rho grows toward its cap.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=np.float64)
    scale = 1.0
    big = max(np.abs(rhs).max(initial=0.0), np.abs(x).max(initial=0.0))
    if _SCALE_ABOVE < big < math.inf:
        scale = math.ldexp(1.0, -math.frexp(big)[1])
        rhs = rhs * scale
        x *= scale
    tol = cfg.tol * scale
    r = rhs.copy() if x0 is None else rhs - op.apply(x)
    rs = float(r @ r)
    if not np.isfinite(rs):
        raise np.linalg.LinAlgError("non-finite residual in conjugate gradient")
    if np.sqrt(rs) <= tol:
        return SolveOutcome(x / scale, 0, float(np.sqrt(rs)) / scale, True)
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
        if np.sqrt(rs_new) <= tol:
            return SolveOutcome(x / scale, it, float(np.sqrt(rs_new)) / scale, True)
        d = r + (rs_new / rs) * d
        rs = rs_new
    return SolveOutcome(x / scale, cfg.max_iter, float(np.sqrt(rs)) / scale, False)
