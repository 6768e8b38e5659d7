"""Matrix Lie group primitives for SO(3) and SE(3).

Elements are stored as plain numpy matrices (3x3 rotations, 4x4 homogeneous
transforms) with membership checked at construction.  Algebra elements carry
their coordinate vector; the matrix form is derived by ``hat``.  se(3)
coordinates are ordered (linear, angular) to match the homogeneous block
layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchAmbiguityError,
    DimensionError,
    KindMismatchError,
    NumericalBlowupError,
    ProjectionFailureError,
)

SO3 = "SO3"
SE3 = "SE3"

_ORTHO_TOL = 1e-9
_DRIFT_TOL = 1e-12  # defect above which the integrators take a Björck step
_SMALL_ANGLE = 1e-6
_PI_EXCLUSION = 1e-7

_ALGEBRA_OF_GROUP = {SO3: "so3", SE3: "se3"}
_GROUP_OF_ALGEBRA = {"so3": SO3, "se3": SE3}
_DIM_OF_ALGEBRA = {"so3": 3, "se3": 6}
_SIZE_OF_GROUP = {SO3: 3, SE3: 4}

# shared read-only identity, so the exponentials do not build np.eye(3) per call
_I3 = np.eye(3)
_I3.flags.writeable = False


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all(), without the ufunc overhead on these tiny arrays."""
    return all(map(math.isfinite, a.ravel().tolist()))


def _det3(rows) -> float:
    """Determinant of a 3x3 matrix given as nested rows (first-row cofactors)."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _check_rotation(rows) -> float:
    """Reject a 3x3 block, given as rows of floats, that is not a rotation; return its defect.

    Computes the same quantities as ``np.linalg.norm(R.T @ R - np.eye(3))``
    and ``np.linalg.det(R)`` -- the Frobenius defect from orthogonality and
    the determinant -- in plain float arithmetic, which is far cheaper than
    the generic numpy routines on a 3x3 block.  The defect must not exceed
    ``_ORTHO_TOL`` and the determinant must be positive.
    """
    (a, b, c), (d, e, f), (g, h, i) = rows
    # R^T R - I is symmetric: three diagonal and three off-diagonal entries
    d00 = a * a + d * d + g * g - 1.0
    d11 = b * b + e * e + h * h - 1.0
    d22 = c * c + f * f + i * i - 1.0
    d01 = a * b + d * e + g * h
    d02 = a * c + d * f + g * i
    d12 = b * c + e * f + h * i
    defect = math.sqrt(
        d00 * d00 + d11 * d11 + d22 * d22 + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12)
    )
    if defect > _ORTHO_TOL:
        raise ProjectionFailureError(f"not orthogonal: ||R^T R - I|| = {defect:.3e}")
    if _det3(rows) <= 0:
        raise ProjectionFailureError("rotation block has non-positive determinant")
    return defect


@dataclass(frozen=True)
class GroupElement:
    """An element of SO(3) or SE(3) as a (homogeneous) matrix; ``defect`` is the
    ||R^T R - I||_F of its rotation block, which the integrators' drift gate reads."""

    kind: str
    matrix: np.ndarray
    defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)  # own copy, frozen below
        flat = m.ravel().tolist()  # read once, for the finiteness and the rotation check
        if not all(map(math.isfinite, flat)):
            raise NumericalBlowupError("group matrix has non-finite entries")
        n = _SIZE_OF_GROUP.get(self.kind)
        if n is None:
            raise KindMismatchError(f"unknown group kind {self.kind!r}")
        if m.shape != (n, n):
            raise DimensionError(f"{self.kind} matrix must be {n}x{n}, got {m.shape}")
        defect = _check_rotation((flat[0:3], flat[n:n + 3], flat[2 * n:2 * n + 3]))
        if n == 4 and flat[12:] != [0.0, 0.0, 0.0, 1.0]:
            if np.linalg.norm(m[3] - np.array([0.0, 0.0, 0.0, 1.0])) > 1e-12:
                raise ProjectionFailureError("bottom row of SE3 matrix is not (0,0,0,1)")
            m[3] = np.array([0.0, 0.0, 0.0, 1.0])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "defect", defect)

    @classmethod
    def identity(cls, kind: str) -> "GroupElement":
        n = 3 if kind == SO3 else 4
        return cls(kind, np.eye(n))

    @property
    def algebra_kind(self) -> str:
        return _ALGEBRA_OF_GROUP[self.kind]

    def rotation(self) -> np.ndarray:
        return self.matrix if self.kind == SO3 else self.matrix[:3, :3]

    def translation(self) -> np.ndarray:
        if self.kind != SE3:
            raise KindMismatchError("translation only defined for SE3")
        return self.matrix[:3, 3]

    def inverse(self) -> "GroupElement":
        return GroupElement(self.kind, inverse_matrix(self.matrix))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.kind != other.kind:
            raise KindMismatchError(f"cannot compose {self.kind} with {other.kind}")
        return GroupElement(self.kind, self.matrix @ other.matrix)

    def is_close(self, other: "GroupElement", tol: float = 1e-9) -> bool:
        return self.kind == other.kind and np.linalg.norm(self.matrix - other.matrix) <= tol


@dataclass(frozen=True)
class AlgebraElement:
    """A Lie algebra element of so(3) or se(3) in coordinate form.

    so(3) coordinates are the rotation-rate axis; se(3) coordinates are
    (linear, angular).
    """

    kind: str
    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if self.kind not in _DIM_OF_ALGEBRA:
            raise KindMismatchError(f"unknown algebra kind {self.kind!r}")
        if v.shape != (_DIM_OF_ALGEBRA[self.kind],):
            raise DimensionError(
                f"{self.kind} coordinates must have length {_DIM_OF_ALGEBRA[self.kind]}, got shape {v.shape}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @classmethod
    def zero(cls, kind: str) -> "AlgebraElement":
        return cls(kind, np.zeros(_DIM_OF_ALGEBRA[kind]))

    @property
    def group_kind(self) -> str:
        return _GROUP_OF_ALGEBRA[self.kind]

    @property
    def matrix(self) -> np.ndarray:
        return hat_matrix(self.vec)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.kind != other.kind:
            raise KindMismatchError(f"cannot add {self.kind} and {other.kind}")
        return AlgebraElement(self.kind, self.vec + other.vec)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.kind != other.kind:
            raise KindMismatchError(f"cannot subtract {self.kind} and {other.kind}")
        return AlgebraElement(self.kind, self.vec - other.vec)

    def __mul__(self, c: float) -> "AlgebraElement":
        return AlgebraElement(self.kind, c * self.vec)

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.kind, -self.vec)

    def norm(self) -> float:
        return math.sqrt(self.vec @ self.vec)


@dataclass(frozen=True)
class Metric:
    """Bi-invariant inner product on the algebra (scaled coordinate dot)."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:  # also rejects NaN
            raise ValueError("metric scale must be positive and finite")


def skew(w: np.ndarray) -> np.ndarray:
    """3x3 antisymmetric matrix with skew(w) @ x == cross(w, x)."""
    x, y, z = w
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def hat_matrix(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape == (3,):
        return skew(v)
    if v.shape == (6,):
        m = np.zeros((4, 4))
        m[:3, :3] = skew(v[3:])
        m[:3, 3] = v[:3]
        return m
    raise DimensionError(f"hat expects a length-3 or length-6 vector, got shape {v.shape}")


def hat(v) -> AlgebraElement:
    """Wrap a coordinate vector as an algebra element (kind from its length)."""
    v = np.asarray(v, dtype=float)
    if v.shape == (3,):
        return AlgebraElement("so3", v)
    if v.shape == (6,):
        return AlgebraElement("se3", v)
    raise DimensionError(f"hat expects a length-3 or length-6 vector, got shape {v.shape}")


def vee(zeta) -> np.ndarray:
    """Coordinates of an algebra element; inverse of hat (bit-identical)."""
    if isinstance(zeta, AlgebraElement):
        return zeta.vec
    m = np.asarray(zeta, dtype=float)
    if m.shape == (3, 3):
        return np.array([m[2, 1], m[0, 2], m[1, 0]])
    if m.shape == (4, 4):
        return np.concatenate([m[:3, 3], np.array([m[2, 1], m[0, 2], m[1, 0]])])
    raise DimensionError(f"vee expects a 3x3 or 4x4 matrix, got shape {m.shape}")


def inverse_matrix(m: np.ndarray) -> np.ndarray:
    """Inverse of an SO(3) or SE(3) matrix: R^T, or the block form (R^T, -R^T p).
    A stack (k, 4, 4) takes the same operations through stacked @: each item has the 2-D bits."""
    if m.shape == (3, 3):
        return m.T
    if m.shape == (4, 4):
        out = np.eye(4)
        out[:3, :3] = m[:3, :3].T
        out[:3, 3] = -m[:3, :3].T @ m[:3, 3]
        return out
    Rt = np.swapaxes(m[..., :3, :3], -1, -2)
    out = np.zeros(m.shape)
    out[..., :3, :3], out[..., 3, 3] = Rt, 1.0
    out[..., :3, 3:] = -Rt @ m[..., :3, 3:]
    return out


def _so3_coeffs(theta: float) -> tuple[float, float, float]:
    """(sin t / t, (1 - cos t) / t^2, (t - sin t) / t^3) at t = theta.

    Below ``_SMALL_ANGLE`` each is its 4-term Taylor series.  An infinite
    theta, or one whose cube overflows, raises NumericalBlowupError.
    """
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0))
        b = 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0 * (1.0 - t2 / 56.0)))
        c = (1.0 / 6.0) * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0 * (1.0 - t2 / 72.0)))
        return a, b, c
    try:
        s = math.sin(theta)
        return s / theta, (1.0 - math.cos(theta)) / (theta * theta), (theta - s) / (theta ** 3)
    except (ValueError, OverflowError) as exc:  # sin(inf), theta ** 3 beyond the float range
        raise NumericalBlowupError(f"rotation angle {theta:.3g} overflows the exponential") from exc


def exp_matrix(vec: np.ndarray) -> np.ndarray:
    """Matrix exponential of so(3) or se(3) coordinates (Rodrigues / closed SE(3) form).

    Returns a plain 3x3 or 4x4 array; ``exp`` wraps it as a GroupElement.
    The se(3) branch shares theta, skew(w) and its square between the
    rotation block and the left Jacobian V.  A stack (k, 3) or (k, 6) gives
    (k, 3, 3) or (k, 4, 4), each item with the bits of its own call.
    """
    if not _all_finite(vec):
        raise NumericalBlowupError("algebra coordinates are non-finite")
    if vec.shape not in ((3,), (6,)):
        if vec.ndim == 2 and vec.shape[1] in (3, 6):
            return _exp_matrix_stack(vec)
        raise DimensionError(f"exp expects a length-3 or length-6 vector, got shape {vec.shape}")
    w = vec[-3:]
    a, b, c = _so3_coeffs(math.sqrt(w @ w))
    W = skew(w)
    W2 = W @ W
    R = _I3 + a * W + b * W2
    if vec.shape == (3,):
        return R
    m = np.eye(4)
    m[:3, :3] = R
    m[:3, 3] = (_I3 + b * W + c * W2) @ vec[:3]
    return m


def _exp_matrix_stack(vec: np.ndarray) -> np.ndarray:
    """``exp_matrix`` of each row: per-row theta and coefficients, stacked skew, W @ W and V @ v."""
    w = vec[:, -3:]
    a, b, c = np.array([_so3_coeffs(math.sqrt(x @ x)) for x in w]).reshape(-1, 3).T[:, :, None, None]
    x, y, z = w.T
    W = np.zeros((len(w), 3, 3))
    W[:, 0, 1], W[:, 0, 2], W[:, 1, 0], W[:, 1, 2], W[:, 2, 0], W[:, 2, 1] = -z, y, z, -x, -y, x
    W2 = W @ W
    R = _I3 + a * W + b * W2
    if vec.shape[1] == 3:
        return R
    m = np.zeros((len(w), 4, 4))
    m[:, :3, :3], m[:, 3, 3] = R, 1.0
    m[:, :3, 3:] = (_I3 + b * W + c * W2) @ vec[:, :3, None]
    return m


def exp(zeta: AlgebraElement) -> GroupElement:
    """Matrix exponential onto the group (Rodrigues / closed SE(3) form)."""
    return GroupElement(zeta.group_kind, exp_matrix(zeta.vec))


def _so3_log(R: np.ndarray) -> np.ndarray:
    skew_part = 0.5 * (R - R.T)
    s_vec = np.array([skew_part[2, 1], skew_part[0, 2], skew_part[1, 0]])
    s = np.linalg.norm(s_vec)  # |sin(theta)|
    c = 0.5 * (np.trace(R) - 1.0)
    theta = math.atan2(s, c)
    if theta > math.pi - _PI_EXCLUSION:
        raise BranchAmbiguityError(
            f"rotation angle {theta:.12f} within {_PI_EXCLUSION:g} of pi; log branch ambiguous"
        )
    if theta < _SMALL_ANGLE:
        # theta/sin(theta) ~ 1 + t^2/6 + 7 t^4/360
        t2 = theta * theta
        factor = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
        return factor * s_vec
    if theta > math.pi - 1e-3:
        # axis from the symmetric part; (R - R^T) only fixes the sign here:
        # u u^T = (R + R^T + (1 - tr R) I) / (3 - tr R)
        B = (R + R.T + (1.0 - np.trace(R)) * np.eye(3)) / (3.0 - np.trace(R))
        i = int(np.argmax(np.diag(B)))
        u = B[:, i] / math.sqrt(B[i, i])
        if np.dot(u, s_vec) < 0:
            u = -u
        return theta * u
    return (theta / s) * s_vec


def log(g: GroupElement) -> AlgebraElement:
    """Principal logarithm; raises BranchAmbiguityError within 1e-7 of pi."""
    if g.kind == SO3:
        return AlgebraElement("so3", _so3_log(g.matrix))
    w = _so3_log(g.rotation())
    _, b, c = _so3_coeffs(math.sqrt(w @ w))
    W = skew(w)
    v = np.linalg.solve(_I3 + b * W + c * (W @ W), g.translation())  # V, the left Jacobian
    return AlgebraElement("se3", np.concatenate([v, w]))


def adjoint(g: GroupElement, zeta: AlgebraElement) -> AlgebraElement:
    """Ad_g zeta, computed as matrix conjugation g zeta^ g^-1."""
    if g.algebra_kind != zeta.kind:
        raise KindMismatchError(f"adjoint: {g.kind} element with {zeta.kind} algebra")
    conj = g.matrix @ zeta.matrix @ inverse_matrix(g.matrix)
    return AlgebraElement(zeta.kind, vee(conj))


def bracket(zeta: AlgebraElement, eta: AlgebraElement) -> AlgebraElement:
    """Matrix commutator [zeta, eta] in coordinates."""
    if zeta.kind != eta.kind:
        raise KindMismatchError(f"bracket: {zeta.kind} with {eta.kind}")
    return AlgebraElement(zeta.kind, vee(zeta.matrix @ eta.matrix - eta.matrix @ zeta.matrix))


def inner(metric: Metric, zeta: AlgebraElement, eta: AlgebraElement) -> float:
    """Bi-invariant inner product: scaled coordinate dot product."""
    if zeta.kind != eta.kind:
        raise KindMismatchError(f"inner: {zeta.kind} with {eta.kind}")
    return float(metric.scale * np.dot(zeta.vec, eta.vec))


def project_to_group(m: np.ndarray, kind: str) -> GroupElement:
    """Nearest group element via SVD orthonormalization of the rotation block.

    The input must be within Frobenius distance 0.5 of the group; reflections
    and badly corrupted blocks raise ProjectionFailureError.  For matrices built
    off the group, such as a recovered pose; the integrators never call it.  One item of ``project_stack``.
    """
    return project_stack(np.asarray(m, dtype=float)[None], kind)[0]


def project_stack(ms: np.ndarray, kind: str) -> list[GroupElement]:
    """``project_to_group`` of each matrix of a stack (k, n, n): one SVD and one
    U @ Vt for the whole stack, then the checks of each item, in order.  The
    first non-finite matrix cuts the stack, as LAPACK's SVD may not return on it."""
    n = _SIZE_OF_GROUP.get(kind)
    if n is None:
        raise KindMismatchError(f"unknown group kind {kind!r}")
    if ms.shape[1:] != (n, n):
        raise DimensionError(f"{kind} projection expects {n}x{n}, got {ms.shape[1:]}")
    n_ok = len(ms) if np.isfinite(ms).all() else int(np.isfinite(ms).all(axis=(1, 2)).argmin())
    blocks = ms[:n_ok, :3, :3]
    U, _, Vt = np.linalg.svd(blocks)
    out = []
    for m, block, u, vt, R in zip(ms, blocks, U, Vt, U @ Vt):
        if _det3(R.tolist()) < 0:
            R = u @ np.diag([1.0, 1.0, -1.0]) @ vt
        if _det3(R.tolist()) <= 0:
            raise ProjectionFailureError("orthonormalized block has non-positive determinant")
        d = (R - block).ravel()
        dist = math.sqrt(d @ d)  # Frobenius distance ||R - block||
        if dist > 0.5:
            raise ProjectionFailureError(f"matrix too far from {kind}: Frobenius distance {dist:.3e} > 0.5")
        g = R
        if kind == SE3:
            g = np.eye(4)
            g[:3, :3], g[:3, 3] = R, m[:3, 3]
        out.append(GroupElement(kind, g))
    if n_ok < len(ms):
        raise NumericalBlowupError("matrix to project has non-finite entries")
    return out
