"""Matrix Lie group primitives for SO(3) and SE(3).

Elements are plain numpy matrices (3x3 rotations, 4x4 homogeneous transforms) checked at construction; algebra
elements carry their coordinate vector, and ``AlgebraElement.matrix`` gives the matrix form.  se(3) coordinates
are ordered (linear, angular) to match the homogeneous block layout.  A stack (k, ...) of matrices or coordinates
is checked, exponentiated or projected as whole arrays, not row by row, each item with the bits of its own call:
``exp_matrix`` of a stack takes the angles, coefficients, skew matrices and products of all its rows at once.
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


def _defect_sq(rows):
    """||R^T R - I||_F^2 of a 3x3 block given as rows of floats, or of arrays over a stack."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    # R^T R - I is symmetric: three diagonal and three off-diagonal entries
    d00 = a * a + d * d + g * g - 1.0
    d11 = b * b + e * e + h * h - 1.0
    d22 = c * c + f * f + i * i - 1.0
    d01 = a * b + d * e + g * h
    d02 = a * c + d * f + g * i
    d12 = b * c + e * f + h * i
    return d00 * d00 + d11 * d11 + d22 * d22 + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12)


def _check_rotation(rows) -> float:
    """Reject a 3x3 block, given as rows of floats, that is not a rotation; return its defect.  The Frobenius
    defect ||R^T R - I|| must not exceed ``_ORTHO_TOL`` and the determinant must be positive; both are computed
    in plain float arithmetic, far cheaper than the generic numpy routines on a 3x3 block."""
    defect = math.sqrt(_defect_sq(rows))
    if defect > _ORTHO_TOL:
        raise ProjectionFailureError(f"not orthogonal: ||R^T R - I|| = {defect:.3e}")
    if _det3(rows) <= 0:
        raise ProjectionFailureError("rotation block has non-positive determinant")
    return defect


@dataclass(frozen=True, slots=True)  # no per-element __dict__: a block keeps one element per component and step
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


def check_stack(ms: np.ndarray, first=()) -> np.ndarray:
    """The GroupElement constructor's checks on each matrix of a stack (k, 3, 3) or (k, 4, 4), in
    whole-array arithmetic, after the caller's own row checks ``first`` ((bad, error) pairs, as
    ``raise_first_bad_row`` takes them): finite entries, the defect (``_defect_sq``) and determinant of
    each rotation block, and an SE(3) bottom row within 1e-12 of (0, 0, 0, 1), set exactly where it is
    not.  The first bad row raises its first failing check, the constructor's error after the caller's."""
    _stack_defects(ms, first)
    return ms


def _stack_defects(ms: np.ndarray, first=()) -> np.ndarray:
    """``check_stack(ms, first)``, in place; returns each item's defect.  A clean stack takes one whole-array
    finiteness test and one ``any`` per check; only a stack with a bad row takes the masks of its finiteness."""
    rows = ms[:, :3, :3].transpose(1, 2, 0)  # each entry as an array over the stack
    with np.errstate(all="ignore"):  # a non-finite row's NaNs pass the checks below; its finiteness check fails
        defect, det = np.sqrt(_defect_sq(rows)), _det3(rows)
    checks = [(defect > _ORTHO_TOL,
               lambda i: ProjectionFailureError(f"not orthogonal: ||R^T R - I|| = {defect[i]:.3e}")),
              (det <= 0, lambda i: ProjectionFailureError("rotation block has non-positive determinant"))]
    if ms.shape[-1] == 4:
        d = ms[:, 3] - (0.0, 0.0, 0.0, 1.0)
        checks.append((np.sqrt(row_dot(d)) > 1e-12,
                       lambda i: ProjectionFailureError("bottom row of SE3 matrix is not (0,0,0,1)")))
    if not np.isfinite(ms).all() or any(bad.any() for bad, _ in (*first, *checks)):
        raise_first_bad_row([*first, (~np.isfinite(ms).all(axis=(1, 2)),
                                      lambda i: NumericalBlowupError("group matrix has non-finite entries")), *checks])
    if ms.shape[-1] == 4 and d.any():
        ms[(d != 0.0).any(axis=1), 3] = (0.0, 0.0, 0.0, 1.0)
    return defect


def _gated(ms: np.ndarray) -> np.ndarray:
    """``check_stack`` of ms, which it returns; a defect above ``_DRIFT_TOL``, which an integrator settles by
    a Björck step, raises.  Products of matrices with exact SE(3) bottom rows keep them exact, so below the
    gate a chain of raw products is the chain that settling each product gives."""
    worst = _stack_defects(ms).max()
    if worst > _DRIFT_TOL:
        raise ProjectionFailureError(f"defect {worst:.3e} above the drift gate")
    return ms


def row_dot(x: np.ndarray) -> np.ndarray:
    """x_i @ x_i for each row of a stack (k, n), by stacked @: each has the bits of the 1-D x @ x."""
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


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
        if self.kind == "so3":
            return skew(self.vec)
        m = np.zeros((4, 4))
        m[:3, :3] = skew(self.vec[3:])
        m[:3, 3] = self.vec[:3]
        return m

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
    return np.array([0.0, -z, y, z, 0.0, -x, -y, x, 0.0]).reshape(3, 3)  # a flat list converts faster


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
    A stack (k, 3, 3) or (k, 4, 4) takes the same operations through stacked @: each item has the 2-D bits."""
    if m.shape == (3, 3):
        return m.T
    if m.shape == (4, 4):
        out = np.eye(4)
        out[:3, :3] = m[:3, :3].T
        out[:3, 3] = -m[:3, :3].T @ m[:3, 3]
        return out
    if m.shape[-1] == 3:
        return np.swapaxes(m, -1, -2)
    Rt = np.swapaxes(m[..., :3, :3], -1, -2)
    out = np.zeros(m.shape)
    out[..., :3, :3], out[..., 3, 3] = Rt, 1.0
    out[..., :3, 3:] = -Rt @ m[..., :3, 3:]
    return out


def _series(t2):  # the 4-term Taylor series of the three coefficients at t^2 = t2, a float or a stack
    return (1.0 - t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0)),
            0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0 * (1.0 - t2 / 56.0))),
            (1.0 / 6.0) * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0 * (1.0 - t2 / 72.0))))


def _closed(theta, s, c, cube):  # the three coefficients' closed forms from t, sin t, cos t and t^3, or stacks
    return s / theta, (1.0 - c) / (theta * theta), (theta - s) / cube


def _so3_coeffs(theta: float) -> tuple[float, float, float]:
    """(sin t / t, (1 - cos t) / t^2, (t - sin t) / t^3) at t = theta.

    Below ``_SMALL_ANGLE`` each is its 4-term Taylor series.  An infinite
    theta, or one whose cube overflows, raises NumericalBlowupError.
    """
    if theta < _SMALL_ANGLE:
        return _series(theta * theta)
    try:
        return _closed(theta, math.sin(theta), math.cos(theta), theta ** 3)
    except (ValueError, OverflowError) as exc:  # sin(inf), theta ** 3 beyond the float range
        raise NumericalBlowupError(f"rotation angle {theta:.3g} overflows the exponential") from exc


def _so3_coeff_stack(theta: np.ndarray) -> np.ndarray:
    """``_so3_coeffs`` of each angle of a stack (k,), as (3, k), with its bits: ``np.float_power`` has the bits
    of Python's ``**``, which numpy's ``**`` does not.  The first infinite or overflowing angle raises."""
    with np.errstate(all="ignore"):  # 0 / 0 on the series' rows; an overflowing row raises below
        cube = np.float_power(theta, 3)
        out = np.where(theta < _SMALL_ANGLE, _series(theta * theta),
                       _closed(theta, np.sin(theta), np.cos(theta), cube))
    for i in np.flatnonzero(np.isinf(cube))[:1]:
        raise NumericalBlowupError(f"rotation angle {theta[i]:.3g} overflows the exponential")
    return out


def _eye_plus(a: float, b: float, x: float, y: float, z: float, q) -> list:
    """(I + a W) + b W^2 as its 9 entries in row order, in floats, for W = skew((x, y, z)) and W^2 as rows
    ``q``, each entry in the order of ``_I3 + a * W + b * W2``, so with its bits: off the diagonal
    0.0 + a * W_ij turns -0.0 into 0.0, as numpy's does, and on it 1.0 + a * 0.0 is exactly 1.0."""
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = q
    return [1.0 + b * q00, (0.0 + a * -z) + b * q01, (0.0 + a * y) + b * q02,
            (0.0 + a * z) + b * q10, 1.0 + b * q11, (0.0 + a * -x) + b * q12,
            (0.0 + a * -y) + b * q20, (0.0 + a * x) + b * q21, 1.0 + b * q22]


def exp_matrix(vec: np.ndarray) -> np.ndarray:
    """Matrix exponential of so(3) or se(3) coordinates (Rodrigues / closed SE(3) form).

    Returns a plain 3x3 or 4x4 array; ``exp`` wraps it as a GroupElement.  The se(3) branch shares theta,
    skew(w) and its square between the rotation block and the left Jacobian V.  A stack (k, 3) or (k, 6) gives
    (k, 3, 3) or (k, 4, 4) by stacked ``@``, each item with the bits of its own call; a stack's finiteness is one
    ``np.isfinite``.  One item reads its coordinates once, as floats, for the finiteness check and the skew; its
    w w, W W and V v are each one ``ndarray.dot``, the BLAS routine of 2-D ``@`` with less dispatch and the same
    bits (pinned by ``TestDotBits``; Python floats differ), and it sums R and V in floats in numpy's order
    (``_eye_plus``).
    """
    coords = vec.tolist() if vec.ndim == 1 else ()  # an item's one read: the finiteness check, the skew
    if not all(map(math.isfinite, coords)) or (vec.ndim != 1 and not np.isfinite(vec).all()):
        raise NumericalBlowupError("algebra coordinates are non-finite")
    if vec.shape not in ((3,), (6,)):
        if vec.ndim == 2 and vec.shape[1] in (3, 6):
            return _exp_matrix_stack(vec)
        raise DimensionError(f"exp expects a length-3 or length-6 vector, got shape {vec.shape}")
    w, (x, y, z) = vec[-3:], coords[-3:]
    a, b, c = _so3_coeffs(math.sqrt(w.dot(w)))
    W = skew((x, y, z))  # from Python floats, which np.array takes faster than numpy scalars; -z is exact
    W2 = W.dot(W).tolist()
    R = _eye_plus(a, b, x, y, z, W2)
    if vec.shape == (3,):
        return np.array(R).reshape(3, 3)
    p0, p1, p2 = np.array(_eye_plus(b, c, x, y, z, W2)).reshape(3, 3).dot(vec[:3]).tolist()
    return np.array([*R[0:3], p0, *R[3:6], p1, *R[6:9], p2, 0.0, 0.0, 0.0, 1.0]).reshape(4, 4)


def _exp_matrix_stack(vec: np.ndarray) -> np.ndarray:
    """``exp_matrix`` of each row: stacked theta, coefficients, skew, W @ W and V @ v."""
    w = vec[:, -3:]
    a, b, c = _so3_coeff_stack(np.sqrt(row_dot(w)))[:, :, None, None]
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


def raise_first_bad_row(checks) -> None:
    """Raise the error of a stack's first bad row, that of the first check it fails: ``checks`` are (bad, error)
    pairs in check order, ``bad`` (k,) true on the rows that fail and ``error(i)`` row i's exception."""
    bad = np.array([mask for mask, _ in checks])
    for i in np.flatnonzero(bad.any(axis=0))[:1]:  # the first bad row, if there is one
        raise checks[bad[:, i].argmax()][1](i)


def project_to_group(m: np.ndarray, kind: str) -> GroupElement:
    """Nearest group element via SVD orthonormalization of the rotation block.

    The input must be within Frobenius distance 0.5 of the group; reflections
    and badly corrupted blocks raise ProjectionFailureError.  For matrices built
    off the group, such as a recovered pose; the integrators never call it.  Row 0 of ``project_stack``, wrapped.
    """
    return GroupElement(kind, project_stack(np.asarray(m, dtype=float)[None], kind)[0])


def project_stack(ms: np.ndarray, kind: str) -> np.ndarray:
    """``project_to_group`` of each matrix of a stack (k, n, n), as a checked stack: one SVD and one U @ Vt, then
    ``check_stack`` of the projections after its own checks (finiteness, the orthonormalized determinant, the 0.5
    distance), with their bits; the first bad item raises its first failing check, so that items fail in order."""
    n = _SIZE_OF_GROUP.get(kind)
    if n is None:
        raise KindMismatchError(f"unknown group kind {kind!r}")
    if ms.shape[1:] != (n, n):
        raise DimensionError(f"{kind} projection expects {n}x{n}, got {ms.shape[1:]}")
    finite = np.isfinite(ms).all(axis=(1, 2))
    blocks = np.where(finite[:, None, None], ms[:, :3, :3], _I3)  # LAPACK's SVD may not return on a non-finite one
    U, _, Vt = np.linalg.svd(blocks)
    R = U @ Vt
    rows = R.transpose(1, 2, 0)  # each entry as an array over the stack; a view, so it sees the flips
    flip = _det3(rows) < 0
    R[flip] = U[flip] @ np.diag([1.0, 1.0, -1.0]) @ Vt[flip]
    dist = np.sqrt(row_dot((R - blocks).reshape(-1, 9)))  # ||R - block||
    g = ms.astype(float)  # a copy that keeps the SE(3) translations; rotation blocks and bottom rows set below
    g[:, :3, :3], g[:, 3:] = R, np.eye(n)[3:]
    return check_stack(g, [
        (~finite, lambda i: NumericalBlowupError("matrix to project has non-finite entries")),
        (_det3(rows) <= 0, lambda i: ProjectionFailureError("orthonormalized block has non-positive determinant")),
        (dist > 0.5, lambda i: ProjectionFailureError(
            f"matrix too far from {kind}: Frobenius distance {dist[i]:.3e} > 0.5"))])
