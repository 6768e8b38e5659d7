"""Group/algebra primitives: hat/vee, exp/log, adjoint, metric, projection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bundleobs import integrate, systems
from bundleobs.errors import (
    BranchAmbiguityError,
    BundleobsError,
    DimensionError,
    KindMismatchError,
    NumericalBlowupError,
    ProjectionFailureError,
)
from bundleobs.groups import (
    AlgebraElement,
    GroupElement,
    Metric,
    adjoint,
    bracket,
    check_stack,
    exp,
    exp_matrix,
    hat,
    inner,
    inverse_matrix,
    log,
    project_stack,
    project_to_group,
    row_dot,
    vee,
)
from bundleobs.groups import _I3, _PI_EXCLUSION, _SMALL_ANGLE, _det3, _exp_item, _so3_coeff_stack, _so3_coeffs, skew
from bundleobs.sampling import random_algebra, random_group, random_rotation, rng_from


def series_exp(m: np.ndarray, terms: int = 60) -> np.ndarray:
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


class TestHatVee:
    def test_zero(self):
        assert np.array_equal(hat([0.0, 0.0, 0.0]).matrix, np.zeros((3, 3)))

    def test_e3_basis(self):
        m = hat([0.0, 0.0, 1.0]).matrix
        expected = np.zeros((3, 3))
        expected[0, 1] = -1.0
        expected[1, 0] = 1.0
        assert np.array_equal(m, expected)

    def test_cross_product_oracle(self):
        rng = rng_from(0)
        v = np.array([0.3, -1.2, 2.0])
        m = hat(v).matrix
        for _ in range(20):
            w = rng.normal(size=3)
            np.testing.assert_allclose(m @ w, np.cross(v, w), atol=1e-14)

    def test_antisymmetric(self):
        rng = rng_from(1)
        for _ in range(10):
            m = hat(rng.normal(size=3)).matrix
            assert np.linalg.norm(m + m.T) <= 1e-12

    def test_vee_roundtrip_bit_identical(self):
        v = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(vee(hat(v)), v)
        v6 = np.array([1.0, 2.0, 3.0, 0.1, -0.2, 0.3])
        assert np.array_equal(vee(hat(v6)), v6)

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            hat([1.0, 2.0])


class TestExp:
    def test_zero_is_identity(self):
        assert np.array_equal(exp(AlgebraElement.zero("so3")).matrix, np.eye(3))
        assert np.array_equal(exp(AlgebraElement.zero("se3")).matrix, np.eye(4))

    def test_half_turn(self):
        R = exp(hat([0.0, 0.0, np.pi])).matrix
        np.testing.assert_allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_series_oracle_so3(self):
        zeta = hat([0.1, -0.2, 0.3])
        np.testing.assert_allclose(exp(zeta).matrix, series_exp(zeta.matrix), atol=1e-12)

    def test_series_oracle_se3(self):
        zeta = hat([0.5, -1.0, 0.25, 0.1, -0.2, 0.3])
        np.testing.assert_allclose(exp(zeta).matrix, series_exp(zeta.matrix), atol=1e-12)

    def test_small_angle_fallback(self):
        zeta = hat([1e-9, -2e-9, 3e-10])
        np.testing.assert_allclose(exp(zeta).matrix, series_exp(zeta.matrix), atol=1e-16)

    def test_nonfinite_raises(self):
        with pytest.raises(NumericalBlowupError):
            exp(AlgebraElement("so3", np.array([np.inf, 0.0, 0.0])))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("angle", [1e160, 1e105])  # |w|^2 overflows; theta ** 3 overflows
    @pytest.mark.parametrize("kind", ["so3", "se3"])
    def test_overflowing_angle_raises_blowup(self, kind, angle):
        vec = np.array([angle, 0.0, 0.0]) if kind == "so3" else np.array([1.0, 0, 0, angle, 0, 0])
        with pytest.raises(NumericalBlowupError, match="overflows"):
            exp(AlgebraElement(kind, vec))

    @pytest.mark.parametrize("kind", ["so3", "se3"])
    def test_huge_finite_angle_still_a_rotation(self, kind):
        vec = np.array([1e101, 0.0, 0.0]) if kind == "so3" else np.array([1.0, 0, 0, 1e101, 0, 0])
        R = exp(AlgebraElement(kind, vec)).matrix[:3, :3]
        assert np.all(np.isfinite(R)) and np.linalg.det(R) > 0

    def test_so3_equals_se3_rotation_block(self):
        rng = rng_from(13)
        for scale in (1e-8, 1e-3, 1.0, 3.0):
            for _ in range(20):
                w = scale * rng.normal(size=3)
                se3 = exp(AlgebraElement("se3", np.concatenate([rng.normal(size=3), w])))
                np.testing.assert_array_equal(exp(AlgebraElement("so3", w)).matrix, se3.matrix[:3, :3])


_UNIT_AXIS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda u: np.linalg.norm(u) > 0.1)
_STACK_ANGLE = st.one_of(
    st.floats(0.0, 0.99 * _SMALL_ANGLE),  # Taylor branch
    st.floats(_SMALL_ANGLE, 3.0),  # generic
    st.floats(-12.0, -2.0).map(lambda e: math.pi + math.copysign(10.0**e, e + 7.0)),  # near pi, both sides
    st.floats(10.0, 1e6),  # many turns
    st.none(),  # a zero row
)


class TestStackedExp:
    """``exp_matrix`` of a (k, 3) or (k, 6) stack: every item has the bits of its own call."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.sampled_from([3, 6]),
           rows=st.lists(st.tuples(_UNIT_AXIS, _STACK_ANGLE, st.floats(-5.0, 5.0)), min_size=1, max_size=10))
    def test_items_match_single_calls(self, dim, rows):
        vecs = []
        for axis, angle, shift in rows:
            w = np.zeros(3) if angle is None else np.array(axis) / np.linalg.norm(axis) * angle
            rho = np.zeros(3) if angle is None else shift * np.array(axis[::-1])
            vecs.append(w if dim == 3 else np.concatenate([rho, w]))
        stack = np.array(vecs)
        out = exp_matrix(stack)
        assert out.shape == (len(vecs), 3, 3) if dim == 3 else (len(vecs), 4, 4)
        for item, vec in zip(out, vecs):
            assert item.tobytes() == exp_matrix(vec).tobytes()

    @pytest.mark.parametrize("dim", [3, 6])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises(self, dim, bad):
        stack = np.full((5, dim), 0.25)
        stack[3, -1] = bad
        with pytest.raises(NumericalBlowupError):
            exp_matrix(stack)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("dim", [3, 6])
    def test_overflowing_angle_row_raises(self, dim):
        stack = np.full((4, dim), 0.25)
        stack[2, -3:] = 1e200
        with pytest.raises(NumericalBlowupError):
            exp_matrix(stack)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3), (0,), (4,)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(DimensionError):
            exp_matrix(np.zeros(shape))


def _numpy_exp_matrix(vec):
    """The per-item ``exp_matrix`` with its sums as numpy array expressions, as it was before they moved to
    Python floats: the reference for those floats' bits."""
    w = vec[-3:]
    a, b, c = _so3_coeffs(math.sqrt(w @ w))
    W = skew(w.tolist())
    W2 = W @ W
    R = _I3 + a * W + b * W2
    if vec.shape == (3,):
        return R
    m = np.eye(4)
    m[:3, :3] = R
    m[:3, 3] = (_I3 + b * W + c * W2) @ vec[:3]
    return m


_SIGNED_ENTRY = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0))
_EXP_ANGLE = st.one_of(
    st.floats(0.0, 1e-300),  # tiny: w @ w underflows
    st.floats(1e-300, 1e-9),
    st.floats(0.5 * _SMALL_ANGLE, 2.0 * _SMALL_ANGLE),  # both sides of the Taylor cut
    st.sampled_from([_SMALL_ANGLE, math.nextafter(_SMALL_ANGLE, 0.0), math.pi]),
    st.floats(1e-3, math.pi),
    st.floats(math.pi, 30.0),  # sin < 0: a < 0
)


def _scaled_coords(row):
    """(rho, w) of a drawn row: signed entries, w scaled to the drawn angle and rho by the drawn shift."""
    entries, angle, shift = row
    w, rho = np.array(entries[3:]), shift * np.array(entries[:3])  # signed zeros stay signed zeros
    norm = math.sqrt(w @ w)
    return np.concatenate([rho, w * (angle / norm) if norm > 0.0 else w])


# or general finite floats as drawn, whose sums of squares round where those of the scaled simple entries are
# mostly exact; below 1e100 no cube of the angle overflows
_EXP_COORDS = st.one_of(
    st.tuples(st.lists(_SIGNED_ENTRY, min_size=6, max_size=6), _EXP_ANGLE, st.floats(0.0, 1e3)).map(_scaled_coords),
    st.lists(st.floats(-1e100, 1e100), min_size=6, max_size=6).map(np.array),
)


class TestExpBits:
    """The per-item ``exp_matrix`` sums I + aW + bW^2 and V in Python floats; each matrix must have the bits
    of the numpy expressions it replaced, and of its row of a stacked call."""

    @settings(max_examples=300, deadline=None)
    @given(dim=st.sampled_from([3, 6]),
           rows=st.lists(_EXP_COORDS, min_size=1, max_size=4))
    def test_float_sums_keep_the_numpy_bits(self, dim, rows):
        vecs = [v[3:] if dim == 3 else v for v in rows]
        stacked = exp_matrix(np.array(vecs))
        for vec, row in zip(vecs, stacked):
            got = exp_matrix(vec)
            assert got.tobytes() == _numpy_exp_matrix(vec).tobytes(), vec
            assert got.tobytes() == row.tobytes(), vec

    @pytest.mark.parametrize("dim", [3, 6])
    def test_signed_zeros(self, dim):
        # a zero coordinate gives a -0.0 entry a * W_ij, and tiny ones of opposite signs a -0.0 entry of
        # W @ W where their product underflows: numpy's (0.0 + a * W_ij) + b * W2_ij is 0.0 there, the
        # plain sum of the two -0.0
        for w in ([-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, 0.0, 1e-3], [-0.0, -0.0, 4.0], [0.0, 1e-300, -1e-300],
                  [1e-200, 0.0, -1e-200], [1e-300, -1e-300, 0.0], [-0.0, -1e-200, 1e-200], [-1e-300, -0.0, 1e-300]):
            vec = np.array(w if dim == 3 else [-0.0, 0.0, -0.0, *w])
            assert exp_matrix(vec).tobytes() == _numpy_exp_matrix(vec).tobytes(), w


_CUBE_EDGE = 5.643803094122361e102  # the largest float whose cube Python's ** keeps finite


class TestFollowerExpBits:
    """A Cascade's follower scales its correction's floats by a step weight and takes ``groups._exp_item`` of
    them, unchecked; each matrix must have the bits of ``exp_matrix`` of the scaled array, of the numpy
    reference and of its row of a stacked call."""

    @settings(max_examples=300, deadline=None)
    @given(dim=st.sampled_from([3, 6]), weight=st.sampled_from([1.0, 1e-3, 0.025, 5e-3 / 6.0]),
           row=st.one_of(_EXP_COORDS, st.tuples(st.lists(_SIGNED_ENTRY, min_size=6, max_size=6),
                                                st.floats(0.5 * _CUBE_EDGE, _CUBE_EDGE), st.floats(0.0, 1e3))
                         .map(_scaled_coords)))  # up to the cube-overflow edge
    @example(dim=3, weight=1e-3, row=np.array([0.0, -0.0, 0.0, -0.0, 1e-7, -0.0]))  # the Taylor branch
    def test_floats_have_exp_matrix_bits(self, dim, weight, row):
        vec = row[-dim:]
        assume(math.sqrt(vec[-3:] @ vec[-3:]) <= _CUBE_EDGE)  # rounding may push |w| past the edge
        scaled = weight * vec
        got = _exp_item([weight * x for x in vec.tolist()])
        assert got.tobytes() == exp_matrix(scaled).tobytes() == _numpy_exp_matrix(scaled).tobytes()
        assert got.tobytes() == exp_matrix(scaled[None])[0].tobytes()


def _sweep_angles() -> np.ndarray:
    """118,007 angles: uniform in [0, 30], log-uniform in [1e-300, 1] and in [1, the cube edge], each float within
    1,000 ulps of ``_SMALL_ANGLE``, the last 1,000 floats up to the edge, and the ends themselves."""
    rng = np.random.default_rng(20261020)
    ulps = np.arange(-1000, 1001)
    return np.concatenate([
        rng.uniform(0.0, 30.0, 50_000),
        10.0 ** rng.uniform(-300.0, 0.0, 40_000),
        10.0 ** rng.uniform(0.0, math.log10(_CUBE_EDGE), 25_000),
        (np.float64(_SMALL_ANGLE).view(np.int64) + ulps).view(np.float64),
        (np.float64(_CUBE_EDGE).view(np.int64) - ulps[1001:]).view(np.float64),
        [0.0, 5e-324, _SMALL_ANGLE, 1.0, math.pi, _CUBE_EDGE]])


class TestCoeffSweep:
    """The stacked coefficients (``np.sin``, ``np.cos``, ``np.float_power``, the series) against the per-item
    ``_so3_coeffs`` (``math``, ``**``), and one stacked ``exp_matrix`` against the per-item calls, bit for bit
    over the whole range that does not overflow; an overflowing row raises the per-item error."""

    def test_edge_is_the_cube_overflow(self):
        assert math.isfinite(_CUBE_EDGE ** 3)
        with pytest.raises(OverflowError):
            math.nextafter(_CUBE_EDGE, math.inf) ** 3

    def test_stacked_coefficients_have_the_per_item_bits(self):
        theta = _sweep_angles()
        got = _so3_coeff_stack(theta)
        want = np.array([_so3_coeffs(t) for t in theta.tolist()]).T
        bad = np.flatnonzero((got.view(np.int64) != want.view(np.int64)).any(axis=0))
        assert len(theta) >= 100_000 and bad.size == 0, theta[bad[:5]]

    def test_stacked_exp_matrix_has_the_per_item_bits(self):
        theta = _sweep_angles()
        rng = np.random.default_rng(7)
        axes = rng.normal(size=(len(theta), 3))
        w = theta[:, None] * (axes / np.sqrt(row_dot(axes))[:, None])
        vecs = np.concatenate([rng.normal(size=(len(theta), 3)), w], axis=1)
        vecs = vecs[np.sqrt(row_dot(w)) <= _CUBE_EDGE]  # rounding may push an edge row's |w| past the edge
        rows = exp_matrix(vecs)  # se(3): the rotation block is the so(3) exponential
        bad = [i for i, vec in enumerate(vecs) if exp_matrix(vec).tobytes() != rows[i].tobytes()]
        assert len(vecs) >= 100_000 and not bad, vecs[bad[:5]]

    @pytest.mark.parametrize("angle", [math.nextafter(_CUBE_EDGE, math.inf), 1e200, math.inf])
    def test_overflow_names_the_first_bad_row(self, angle):
        theta = np.array([0.5, 0.0, angle, 2.0, 1e300])
        with pytest.raises(NumericalBlowupError) as per_item:
            _so3_coeffs(angle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning leaks from the stacked forms
            with pytest.raises(NumericalBlowupError) as stacked:
                _so3_coeff_stack(theta)
            if angle * angle < math.inf:  # |w| = angle, its square finite: the stacked exp_matrix raises the same
                with pytest.raises(NumericalBlowupError) as exp_error:
                    exp_matrix(np.outer(theta, [0.0, 0.0, 1.0])[:4])
                assert str(exp_error.value) == str(per_item.value)
        assert type(stacked.value) is type(per_item.value)
        assert str(stacked.value) == str(per_item.value) == f"rotation angle {angle:.3g} overflows the exponential"


_DOT_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310]),  # signed zeros and subnormals
    st.floats(-1e-300, 1e-300),  # tiny: their products underflow
    st.floats(-1e3, 1e3),
)


def _slam_zeta_e_by_matmul(L, S, Y):
    """``slam_zeta_e`` of one item with every product an ``@``."""
    A = L[:3] - S[:3, 3:] - S[:3, :3] @ Y[:3]
    m = A @ L[:3].T
    return 2.0 * np.array([*A.sum(axis=1), m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])


class TestDotBits:
    """The single-item products of the stepping path are ``ndarray.dot`` calls: each shape must have the bits of
    ``@``, and ``exp_matrix``, ``_chain`` and the closed-form zeta_e the bits of their ``@`` forms."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), data=st.data())
    def test_dot_keeps_the_bits_of_matmul(self, n, data):
        x = data.draw(arrays(np.float64, 56 + 8 * n, elements=_DOT_ENTRY))
        M3, N3, M4, N4 = x[:9].reshape(3, 3), x[9:18].reshape(3, 3), x[18:34].reshape(4, 4), x[34:50].reshape(4, 4)
        u, v, L, Y = x[50:53], x[53:56], x[56:56 + 4 * n].reshape(4, n), x[56 + 4 * n:].reshape(4, n)
        for a, b in [(M3, N3), (M3, M3), (M4, N4), (M4, M4), (M3, u), (u, v), (u, u), (M4[:3, :3], Y[:3])]:
            assert a.dot(b).tobytes() == (a @ b).tobytes(), (a, b)
        for vec in (u, x[50:56]):
            assert exp_matrix(vec).tobytes() == _numpy_exp_matrix(vec).tobytes(), vec
        for M, N in [(M3, N3), (M4, N4)]:
            got = integrate._chain(M, [(N, None), (None, M), (M, N)])
            assert got.tobytes() == (M @ ((N @ M) @ M) @ N).tobytes()
        (u1, _, u3), (v1, v2, _) = (M3 @ u).tolist(), (M3 @ v).tolist()
        assert systems.attitude_zeta_e(M3, (u, v)).tobytes() == (-2.0 * np.array([u3 - v2, v1, -u1])).tobytes()
        assert systems.slam_zeta_e(L, M4, Y).tobytes() == _slam_zeta_e_by_matmul(L, M4, Y).tobytes()

    def test_one_landmark_keeps_matmul(self):
        # N = 1: (3, 1) x (1, 3) takes matmul's loop, a * b + 0.0, but dot's fused dgemm keeps the sign of an
        # underflowed product, so slam_zeta_e's A lbar^T stays @; here m21 = A2 l1 = -5e-324 * 5e-324
        L, S, Y = np.array([[1.0], [5e-324], [5e-324], [1.0]]), np.eye(4), np.array([[0.0], [0.0], [0.0], [1.0]])
        S[2, 3] = 1e-323  # A = (1, 5e-324, -5e-324)
        assert systems.slam_zeta_e(L, S, Y).tobytes() == _slam_zeta_e_by_matmul(L, S, Y).tobytes()


class TestLog:
    def test_identity(self):
        assert np.array_equal(log(GroupElement.identity("SO3")).vec, np.zeros(3))
        assert np.array_equal(log(GroupElement.identity("SE3")).vec, np.zeros(6))

    def test_roundtrip_example(self):
        v = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(log(exp(hat(v))).vec, v, atol=1e-10)

    def test_branch_exclusion_near_pi(self):
        g = exp(hat([np.pi - 1e-8, 0.0, 0.0]))
        with pytest.raises(BranchAmbiguityError):
            log(g)

    def test_near_pi_outside_exclusion(self):
        v = (np.pi - 1e-4) * np.array([0.0, 0.6, 0.8])
        np.testing.assert_allclose(log(exp(hat(v))).vec, v, atol=1e-9)

    def test_exp_log_roundtrip_property(self):
        rng = rng_from(11)
        worst = 0.0
        for _ in range(200):
            w = rng.uniform(0.0, np.pi - 0.1) * (lambda u: u / np.linalg.norm(u))(
                rng.normal(size=3)
            )
            v = np.concatenate([rng.normal(size=3), w])
            worst = max(worst, float(np.linalg.norm(log(exp(hat(v))).vec - v)))
        assert worst <= 1e-9

    def test_homomorphism_on_commuting(self):
        rng = rng_from(12)
        for _ in range(20):
            zeta = random_algebra("so3", rng)
            a, b = rng.uniform(-0.8, 0.8, size=2)
            lhs = exp(a * zeta) @ exp(b * zeta)
            rhs = exp((a + b) * zeta)
            assert np.linalg.norm(lhs.matrix - rhs.matrix) <= 1e-10


class TestAdjoint:
    def test_identity(self):
        zeta = hat([0.1, 0.2, 0.3])
        np.testing.assert_allclose(adjoint(GroupElement.identity("SO3"), zeta).vec, zeta.vec)

    def test_inverse_composition(self):
        rng = rng_from(2)
        g = random_rotation(rng)
        zeta = random_algebra("so3", rng)
        back = adjoint(g.inverse(), adjoint(g, zeta))
        np.testing.assert_allclose(back.vec, zeta.vec, atol=1e-12)

    def test_finite_difference_oracle(self):
        rng = rng_from(3)
        g = random_rotation(rng)
        zeta = random_algebra("so3", rng)
        s = 1e-6
        conj = lambda t: g.matrix @ exp(t * zeta).matrix @ g.inverse().matrix
        fd = (conj(s) - conj(-s)) / (2 * s)
        np.testing.assert_allclose(adjoint(g, zeta).matrix, fd, atol=1e-6)

    def test_bracket_equivariance(self):
        rng = rng_from(4)
        for kind in ("so3", "se3"):
            g = random_rotation(rng) if kind == "so3" else None
            if g is None:
                from bundleobs.sampling import random_group

                g = random_group("SE3", rng)
            z, e = random_algebra(kind, rng), random_algebra(kind, rng)
            lhs = adjoint(g, bracket(z, e))
            rhs = bracket(adjoint(g, z), adjoint(g, e))
            assert np.linalg.norm(lhs.vec - rhs.vec) <= 1e-10

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            adjoint(GroupElement.identity("SO3"), AlgebraElement.zero("se3"))


class TestInner:
    def test_unit_basis(self):
        zeta = hat([1.0, 0.0, 0.0])
        assert inner(Metric(), zeta, zeta) == 1.0

    def test_symmetry(self):
        rng = rng_from(5)
        m = Metric()
        for _ in range(100):
            z, e = random_algebra("so3", rng), random_algebra("so3", rng)
            assert inner(m, z, e) == inner(m, e, z)

    def test_ad_invariance(self):
        rng = rng_from(6)
        m = Metric()
        for _ in range(50):
            g = random_rotation(rng)
            z, e = random_algebra("so3", rng), random_algebra("so3", rng)
            assert abs(inner(m, adjoint(g, z), adjoint(g, e)) - inner(m, z, e)) <= 1e-12

    def test_positive_definite(self):
        z = hat([0.3, -0.4, 0.1])
        assert inner(Metric(), z, z) > 0
        assert inner(Metric(), AlgebraElement.zero("so3"), AlgebraElement.zero("so3")) == 0.0


class TestProjectToGroup:
    def test_exact_element_fixed(self):
        rng = rng_from(7)
        g = random_rotation(rng)
        np.testing.assert_allclose(project_to_group(g.matrix, "SO3").matrix, g.matrix, atol=1e-14)

    def test_small_perturbation(self):
        rng = rng_from(8)
        m = np.eye(3) + 1e-4 * hat(rng.normal(size=3)).matrix
        g = project_to_group(m, "SO3")
        assert np.linalg.norm(g.matrix.T @ g.matrix - np.eye(3)) <= 1e-12

    def test_far_matrix_rejected(self):
        with pytest.raises(ProjectionFailureError):
            project_to_group(np.diag([1.0, 1.0, -1.0]), "SO3")

    def test_distance_threshold(self):
        # (1 + s) Q projects onto Q at Frobenius distance s sqrt(3)
        Q = random_rotation(rng_from(12)).matrix
        for dist, accepted in ((0.45, True), (0.55, False)):
            m = (1.0 + dist / np.sqrt(3.0)) * Q
            if accepted:
                np.testing.assert_allclose(project_to_group(m, "SO3").matrix, Q, atol=1e-12)
            else:
                with pytest.raises(ProjectionFailureError):
                    project_to_group(m, "SO3")

    @pytest.mark.parametrize("kind", ["SO3", "SE3"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, kind, value):
        # LAPACK's SVD may not return on an infinite entry
        m = np.eye(3 if kind == "SO3" else 4)
        m[0, 0] = value
        with pytest.raises(NumericalBlowupError):
            project_to_group(m, kind)
        with pytest.raises(NumericalBlowupError):  # after the finite items before it
            project_stack(np.stack([np.eye(len(m)), m, np.diag([1.0, 1.0, -1.0] + [1.0] * (len(m) - 3))]), kind)

    def test_se3_bottom_row_reset(self):
        rng = rng_from(9)
        from bundleobs.sampling import random_group

        g = random_group("SE3", rng)
        m = g.matrix.copy()
        m[:3, :3] += 1e-5 * rng.normal(size=(3, 3))
        proj = project_to_group(m, "SE3")
        assert np.array_equal(proj.matrix[3], np.array([0.0, 0.0, 0.0, 1.0]))


def _project_item(m, kind):
    """One item of ``project_stack`` checked alone, as the per-item loop that preceded the stacked checks did it:
    the reference for the bits of each accepted item and for the error of a stack's first bad item."""
    if not np.isfinite(m).all():
        raise NumericalBlowupError("matrix to project has non-finite entries")
    block = m[:3, :3]
    u, _, vt = np.linalg.svd(block)
    R = u @ vt
    if _det3(R.tolist()) < 0:
        R = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    if _det3(R.tolist()) <= 0:
        raise ProjectionFailureError("orthonormalized block has non-positive determinant")
    d = (R - block).ravel()
    dist = math.sqrt(d @ d)  # Frobenius distance ||R - block||
    if dist > 0.5:
        raise ProjectionFailureError(f"matrix too far from {kind}: Frobenius distance {dist:.3e} > 0.5")
    g = R
    if kind == "SE3":
        g = np.eye(4)
        g[:3, :3], g[:3, 3] = R, m[:3, 3]
    return GroupElement(kind, g).matrix


def _stack_item(kind, spec, seed):
    """One matrix of a drawn stack: a group element, exact or perturbed by up to 0.9 in Frobenius distance, a
    perturbed reflection (which takes the flip), a far matrix (distance above 0.5), or one with a non-finite entry."""
    rng = rng_from(seed)
    m = random_group(kind, rng).matrix.copy()
    if spec == "perturbed":
        m[:3, :3] += rng.uniform(0.0, 0.9) * rng.uniform(-1.0, 1.0, size=(3, 3)) / 3.0
    elif spec == "reflection":
        m[:3, :3] = m[:3, :3] @ np.diag([1.0, 1.0, -1.0]) + rng.uniform(-1e-3, 1e-3, size=(3, 3))
    elif spec == "far":
        m[:3, :3] *= rng.uniform(1.3, 4.0)  # distance (s - 1) sqrt(3) > 0.5
    elif spec == "non_finite":
        m.flat[rng.integers(m.size)] = rng.choice([np.inf, -np.inf, np.nan])
    return m


_STACK_ITEM = st.tuples(st.sampled_from(["exact", "perturbed", "reflection", "far", "non_finite"]),
                        st.integers(0, 2**32 - 1))


class TestProjectStackOrder:
    """``project_stack`` runs each check on the whole stack: every accepted item must have the bits of the
    per-item code, and a stack with a bad item the error (class and message) of its first bad item."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["SO3", "SE3"]), items=st.lists(_STACK_ITEM, min_size=1, max_size=8))
    @example(kind="SE3", items=[("exact", 1), ("reflection", 2), ("exact", 3), ("far", 4)])
    @example(kind="SO3", items=[("perturbed", 5), ("far", 6), ("exact", 7), ("non_finite", 8)])
    def test_items_as_the_per_item_code(self, kind, items):
        ms = np.array([_stack_item(kind, spec, seed) for spec, seed in items])
        expected = []
        for m in ms:
            try:
                expected.append(_project_item(m, kind))
            except BundleobsError as exc:
                with pytest.raises(type(exc)) as got:
                    project_stack(ms, kind)
                assert str(got.value) == str(exc)
                return
        assert project_stack(ms, kind).tobytes() == np.array(expected).tobytes()


class TestInvariants:
    def test_bad_rotation_rejected(self):
        with pytest.raises(ProjectionFailureError):
            GroupElement("SO3", np.eye(3) * 1.5)

    def test_reflection_rejected(self):
        # orthogonal, so only the determinant test can reject it
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ProjectionFailureError):
            GroupElement("SO3", flip)
        m = np.eye(4)
        m[:3, :3] = flip
        with pytest.raises(ProjectionFailureError):
            GroupElement("SE3", m)

    @pytest.mark.parametrize("kind", ["SO3", "SE3"])
    def test_orthogonality_threshold(self, kind):
        # scale a rotation so that ||R^T R - I||_F lands 5 % either side of 1e-9
        Q = random_rotation(rng_from(11)).matrix
        for target, accepted in ((0.95e-9, True), (1.05e-9, False)):
            # ||s^2 Q^T Q - I|| ~ sqrt(3) (s^2 - 1)
            R = Q * np.sqrt(1.0 + target / np.sqrt(3.0))
            defect = np.linalg.norm(R.T @ R - np.eye(3))
            assert (defect <= 1e-9) == accepted
            m = R
            if kind == "SE3":
                m = np.eye(4)
                m[:3, :3] = R
            if accepted:
                np.testing.assert_array_equal(GroupElement(kind, m).matrix, m)
            else:
                with pytest.raises(ProjectionFailureError):
                    GroupElement(kind, m)

    def test_nonfinite_matrix_rejected(self):
        m = np.eye(3)
        m = m.copy()
        m[0, 0] = np.nan
        with pytest.raises(NumericalBlowupError):
            GroupElement("SO3", m)

    def test_unknown_kind(self):
        with pytest.raises(KindMismatchError):
            GroupElement("SU2", np.eye(2))

    def test_matmul_stays_on_group(self):
        rng = rng_from(10)
        g = random_rotation(rng)
        h = random_rotation(rng)
        gh = g @ h
        assert np.linalg.norm(gh.matrix.T @ gh.matrix - np.eye(3)) <= 1e-9


def _bad_matrix(kind, name):
    """A group matrix failing the one constructor check ``name``, or with a bottom row off by 1e-13."""
    m = random_group(kind, rng_from(12)).matrix.copy()
    if name == "non_finite":
        m[1, 2] = np.inf
    elif name == "defect":
        m[:3, :3] *= 1.0 + 2e-9
    elif name == "det":
        m[:3, :3] = -m[:3, :3]
    else:
        m[3, 1] = 1e-6 if name == "bottom_row" else 1e-13
    return m


_BAD = [(kind, name) for kind in ("SO3", "SE3") for name in ("non_finite", "defect", "det")] + [
    ("SE3", "bottom_row"), ("SE3", "bottom_row_close")]

# a stack of good rows (each from its seed) and ``_bad_matrix`` rows of the kind's faults
_MIXED_STACK = st.sampled_from(["SO3", "SE3"]).flatmap(lambda kind: st.tuples(st.just(kind), st.lists(st.tuples(
    st.sampled_from(["good"] + [name for k, name in _BAD if k == kind]), st.integers(0, 2**32 - 1)),
    min_size=1, max_size=8)))


class TestCheckStack:
    """``check_stack``: the constructor's checks on a stack, whole-array, with its error classes."""

    @settings(max_examples=300, deadline=None)
    @given(case=_MIXED_STACK)
    @example(case=("SE3", [("defect", 1), ("non_finite", 2)]))
    def test_mixed_faults_as_the_constructor_row_by_row(self, case):
        # the first bad row raises the constructor's error (class and message); a stack without one has the
        # constructor's bytes; a non-finite row raises without a RuntimeWarning from the arithmetic of the others
        kind, items = case
        ms = np.array([random_group(kind, rng_from(seed)).matrix if name == "good" else _bad_matrix(kind, name)
                       for name, seed in items])
        expected = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for m in ms:
                try:
                    expected.append(GroupElement(kind, m).matrix)
                except BundleobsError as exc:
                    with pytest.raises(type(exc)) as got:
                        check_stack(ms)
                    assert str(got.value) == str(exc)
                    return
            assert check_stack(ms).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("kind", ["SO3", "SE3"])
    def test_valid_stack_passes_unchanged(self, kind):
        rng = rng_from(13)
        ms = np.array([random_group(kind, rng).matrix for _ in range(6)])
        before = ms.copy()
        assert check_stack(ms) is ms
        assert ms.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind, name", _BAD)
    def test_bad_item_as_the_constructor(self, kind, name):
        bad = _bad_matrix(kind, name)
        rng = rng_from(14)
        ms = np.array([random_group(kind, rng).matrix for _ in range(3)] + [bad])
        try:
            want = GroupElement(kind, bad).matrix
        except Exception as exc:  # the class the constructor raises
            with pytest.raises(type(exc)):
                check_stack(ms)
        else:  # a bottom row within 1e-12: accepted and set exactly, as the constructor sets it
            assert check_stack(ms)[-1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["SO3", "SE3"])
    def test_defect_threshold_as_the_constructor(self, kind):
        Q, seen = random_group(kind, rng_from(11)).matrix, set()
        for target in np.linspace(0.9e-9, 1.1e-9, 41):
            m = Q.copy()
            m[:3, :3] *= np.sqrt(1.0 + target / np.sqrt(3.0))
            try:
                GroupElement(kind, m)
                accepted = True
            except ProjectionFailureError:
                accepted = False
            seen.add(accepted)
            if accepted:
                check_stack(m[None].copy())
            else:
                with pytest.raises(ProjectionFailureError):
                    check_stack(m[None].copy())
        assert seen == {True, False}

    @pytest.mark.parametrize("kind", ["SO3", "SE3"])
    def test_stacked_inverse_and_row_dot_match_single_calls(self, kind):
        rng = rng_from(15)
        ms = np.array([random_group(kind, rng).matrix for _ in range(50)])
        for m, inv in zip(ms, inverse_matrix(ms)):
            assert inv.tobytes() == np.ascontiguousarray(inverse_matrix(m)).tobytes()
        x = rng.normal(size=(50, 6))
        assert row_dot(x).tobytes() == np.array([v @ v for v in x]).tobytes()


# rotation angles of each branch of exp and log: the small-angle Taylor series,
# the generic closed form, and the near-pi axis from the symmetric part, kept
# outside the 1e-7 exclusion band (twice its width, so rounding in exp cannot
# push the recovered angle into it)
_BRANCHES = {
    "taylor": (0.0, _SMALL_ANGLE),
    "generic": (_SMALL_ANGLE, math.pi - 1e-3),
    "near_pi": (math.pi - 1e-3, math.pi - 2.0 * _PI_EXCLUSION),
}
_axis = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array).filter(
    lambda u: np.linalg.norm(u) > 0.1
)


@st.composite
def _rotation_vector(draw):
    lo, hi = _BRANCHES[draw(st.sampled_from(sorted(_BRANCHES)))]
    theta = draw(st.floats(lo, hi))
    u = draw(_axis)
    return theta * u / np.linalg.norm(u)


class TestExpLogProperties:
    @settings(max_examples=300, deadline=None)
    @given(w=_rotation_vector())
    def test_so3_roundtrip(self, w):
        out = log(exp(AlgebraElement("so3", w))).vec
        assert np.linalg.norm(out - w) <= 1e-12 * np.linalg.norm(w)

    @settings(max_examples=300, deadline=None)
    @given(w=_rotation_vector(), rho=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
    def test_se3_roundtrip(self, w, rho):
        out = log(exp(AlgebraElement("se3", np.concatenate([rho, w])))).vec
        assert np.linalg.norm(out[3:] - w) <= 1e-12 * np.linalg.norm(w)
        # Just above the Taylor threshold, (1 - cos t) / t^2 in V cancels to an
        # absolute error of about eps / t^2, so V rho carries about eps |rho| / t
        # wherever exp or log took the generic branch.
        theta, r = max(np.linalg.norm(w), np.linalg.norm(out[3:])), np.linalg.norm(rho)
        cancellation = 1e-15 * r / theta if theta >= _SMALL_ANGLE else 0.0
        assert np.linalg.norm(out[:3] - rho) <= 1e-12 * (1.0 + r) + cancellation


class TestProjectionProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["SO3", "SE3"]),
        seed=st.integers(0, 2**32 - 1),
        size=st.floats(0.0, 0.25),
    )
    def test_idempotent(self, kind, seed, size):
        rng = rng_from(seed)
        m = random_group(kind, rng).matrix.copy()
        m[:3, :3] += size * rng.uniform(-1.0, 1.0, size=(3, 3)) / 3.0  # Frobenius distance <= size
        once = project_to_group(m, kind)
        twice = project_to_group(once.matrix, kind)
        assert np.linalg.norm(twice.matrix - once.matrix) <= 1e-14
        if kind == "SE3":
            assert twice.matrix[:3, 3].tobytes() == once.matrix[:3, 3].tobytes()


class TestMetricValidation:
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_or_non_finite(self, scale):
        with pytest.raises(ValueError, match="positive"):
            Metric(scale)

    def test_accepts_positive_finite(self):
        assert Metric(2.5).scale == 2.5
