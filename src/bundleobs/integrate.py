"""Fixed-step time integration on Lie groups and product state spaces.

States map names to GroupElement or numpy arrays (array rates step by Euler/RK4).  Every group
rate is a SplitRate: a plain AlgebraElement or coordinate vector is its body part on side "left"
and its spatial part on side "right".  Its parts, length-checked once, step group states under one
rule, m <- exp_matrix(h spatial) @ m @ exp_matrix(h body), in every stage and composition.  The
general loop gives each new matrix the GroupElement constructor's checks once; above a defect
||R^T R - I|| of 1e-12 its drift gate takes one Björck step, instead of an SVD projection.  An
``Input``'s or ``Cascade``'s ``u`` maps a block's read times to stacks, read once per block, whose
exponentials are one stack per side; the block steps on raw matrices sliced from them, checks each
component's block once as a stack and writes it into the arrays, with the same bits; any failure, a
matrix above the gate included, hands the block to the general loop, which reads u one read at a time."""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from . import groups
from .errors import ConfigError, KindMismatchError, NumericalBlowupError
from .groups import AlgebraElement, GroupElement

LIE_EULER = "lie_euler"
RK4_CG = "rk4_cg"

# upper bound on round(t_final / h); the longest shipped scenario has 20,000 steps
MAX_STEPS = 1_000_000
_BLOCK = 512  # steps per block: spreads each pass's fixed cost; 2,048 and more add RSS and no speed
# h / divisor: the stage steps, then the composition weights (a lie_euler step has one weight)
_STAGES = {LIE_EULER: ((), (1,)), RK4_CG: ((2, 2, 1), (6, 3, 3, 6))}


@dataclass(frozen=True)
class Input:
    """A rate that reads only the time, which ``integrate_system`` steps open-loop: ``u(ts)`` maps a block's read
    times, a (k,) array, to the rate dict of stacks, each a (k, d) array or a SplitRate of them.  As ``rate(t,
    state)`` it is row 0 of u of a one-read block, so a wrapped Input runs the general loop on the same u."""

    u: Callable

    def __call__(self, t, state):
        return _row(self.u(np.array([t])))


def _row(rates) -> dict:  # row 0 of a rate dict of stacks
    return {k: SplitRate(*(x if x is None else x[0] for x in (r.body, r.spatial))) if isinstance(r, SplitRate)
            else r[0] for k, r in rates.items()}


@dataclass(frozen=True)
class Cascade(Input):
    """An Input u(ts) of some components, which one more, the follower, a group element, follows.  ``sense(ts, rates,
    states)`` takes a block's read times, u's stacks and the driven states stacked, (k, d) or (k, n, n), and gives
    the follower's feed-forward, a SplitRate of (k, d) stacks with one part None, and the k measured rows, a bad
    one as its exception, last; each row must have the bits of a one-read block's, or the general loop's bytes
    differ, and a sense that raises is called again one read at a time.  ``follow(t, m, y)``, at the follower's
    matrix (a block pass's raw product) and a row, gives the feedback's coordinates for the other part.  As a
    rate, the merge of a one-read block."""

    sense: Callable
    follow: Callable

    def __call__(self, t, state):
        rates = self.u(ts := np.array([t]))
        f = next((k for k in state if k not in rates), None)
        if f is None:
            raise KindMismatchError("a Cascade needs one component that u does not drive, its follower")
        if not isinstance(state[f], GroupElement):
            raise KindMismatchError(f"the follower {f!r} of a Cascade must be a group element")
        feed, ys = self.sense(ts, rates, {k: np.array([getattr(state[k], "matrix", state[k])]) for k in rates})
        if isinstance(ys[0], Exception):
            raise ys[0]
        back = np.array([self.follow(t, state[f].matrix, ys[0])])
        return _row({**rates, f: SplitRate(*(back if x is None else x for x in (feed.body, feed.spatial)))})


@dataclass(frozen=True)
class SplitRate:
    """Group rate g' = spatial^ g + g body^; each part is an AlgebraElement or its vector.  Stepped as
    exp(h spatial) g exp(h body), which keeps discretizations of observer loops exactly equivariant (the
    correction and the feedforward commute through the group error)."""

    body: AlgebraElement | np.ndarray | None = None
    spatial: AlgebraElement | np.ndarray | None = None


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = LIE_EULER
    h: float = 1e-3
    t_final: float = 1.0

    def __post_init__(self):
        if self.method not in (LIE_EULER, RK4_CG):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.h <= 0:
            raise ConfigError("step size must be positive")
        if self.t_final < 0:
            raise ConfigError("t_final must be non-negative")
        n_steps = self.t_final / self.h
        if not math.isfinite(n_steps) or round(n_steps) > MAX_STEPS:
            raise ConfigError(f"t_final / h = {n_steps:.3g} steps; at most {MAX_STEPS} allowed")


class _Sample(Mapping):
    """Sample i of a Trajectory, read-only: each value is built on access, as ``Trajectory[i]`` builds it."""

    __slots__ = ("arrays", "kinds", "i")

    def __init__(self, arrays, kinds, i):
        self.arrays, self.kinds, self.i = arrays, kinds, i

    def __getitem__(self, k):
        return self.arrays[k][self.i] if k not in self.kinds else GroupElement(self.kinds[k], self.arrays[k][self.i])

    __iter__, __len__ = (lambda self: iter(self.arrays)), (lambda self: len(self.arrays))


@dataclass
class Trajectory(Sequence):
    """Time-indexed samples, each component's stacked in ``arrays``: (n + 1, k, k) matrices of group kind
    ``kinds[name]`` or (n + 1, d) vectors; plus recorded extras.  As a sequence (also as ``states``), the
    samples' state dicts, each built on access from validated GroupElements and vector rows."""

    times: np.ndarray
    arrays: dict
    kinds: dict
    extras: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    def __getitem__(self, i) -> dict:
        return dict(_Sample(self.arrays, self.kinds, range(len(self))[i]))  # IndexError past either end

    states = property(lambda self: self)


def _as_split(r, side: str, kind: str, reads=()) -> list:
    """``r`` as (spatial, body) coordinates of ``kind``'s algebra, (*reads, d), None if missing, checked to fit."""
    parts = (r.spatial, r.body) if isinstance(r, SplitRate) else (None, r) if side == "left" else (r, None)
    out = [x.vec if isinstance(x, AlgebraElement) else x if x is None else np.asarray(x, float) for x in parts]
    for v in out:
        if v is not None and v.shape != (*reads, 3 if kind == groups.SO3 else 6):
            raise KindMismatchError(f"cannot step {kind} by a rate with coordinates of shape {v.shape}")
    return out


def _step(g: GroupElement, steps) -> GroupElement:
    """g's matrix chained by (exp(h spatial), exp(h body)) per (h, (spatial, body)) in ``steps``, then settled:
    through the validating constructor, then one Björck step if its rotation drifted."""
    g = GroupElement(g.kind, _chain(g.matrix, [[x if x is None else groups.exp_matrix(h * x) for x in part]
                                               for h, part in steps]))
    if g.defect <= groups._DRIFT_TOL:
        return g
    R, m = g.rotation(), g.matrix.copy()
    m[:3, :3] = 0.5 * (R @ (3.0 * np.eye(3) - R.T @ R))  # R (3I - R^T R) / 2, translation kept
    return GroupElement(g.kind, m)


def _chain(m: np.ndarray, factors) -> np.ndarray:
    """The stepping rule: m stepped by each (E_s, E_b) in turn, E_s m E_b, one ``ndarray.dot`` each; None skips."""
    for E_s, E_b in factors:
        m = m if E_s is None else E_s.dot(m)
        m = m if E_b is None else m.dot(E_b)
    return m


def lie_step(g: GroupElement, xi: AlgebraElement | np.ndarray, h: float, side: str = "left") -> GroupElement:
    """One exponential step: g exp(h xi) (left) or exp(h xi) g (right)."""
    if h <= 0:
        raise ConfigError("step size must be positive")
    return _step(g, ((h, _as_split(xi, side, g.kind)),))


def _rates(rate, t, state, sides):
    """rate(t, state) with every group rate as (spatial, body) vectors, checked finite."""
    out = dict(rate(t, state))
    for name, value in state.items():
        if isinstance(value, GroupElement):
            out[name] = _as_split(out[name], sides.get(name, "left"), value.kind)
            arrays = [x for x in out[name] if x is not None]
        else:
            arrays = [np.asarray(out[name])]
            if arrays[0].shape != np.shape(value):
                raise KindMismatchError(f"a rate of shape {arrays[0].shape} for {name!r} of shape {np.shape(value)}")
        if not all(map(groups._all_finite, arrays)):
            raise NumericalBlowupError(f"non-finite rate for component {name!r} at t={t:.6g}", t=t)
    return out


def _increment(h, ks):
    """The vector step h k1 (lie_euler) or (h / 6)(k1 + 2 k2 + 2 k3 + k4) (rk4_cg)."""
    return h * ks[0] if len(ks) == 1 else (h / 6) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])


def _advance(state, ks, weights, h):
    """Each component stepped along the rates ``ks``: by weighted exponentials, composed, or ``_increment``."""
    return {name: _step(x, [(w, k[name]) for w, k in zip(weights, ks)]) if isinstance(x, GroupElement)
            else np.asarray(x) + _increment(h, [np.asarray(k[name]) for k in ks]) for name, x in state.items()}


def _general_step(rate, method, t, state, h, sides):
    """A general-loop step: lie_euler, or rk4_cg's frozen-algebra stages (exact for constant rates, order >= 2)."""
    stages, weights = ([h / d for d in ds] for ds in _STAGES[method])
    ks = [_rates(rate, t, state, sides)]
    for d in stages:  # rate j + 1 is read on the state stepped by d along rate j
        ks.append(_rates(rate, t + d, _advance(state, ks[-1:], [d], d), sides))
    return _advance(state, ks, weights, h)


def _factors(parts, m, stages, weights, memo) -> list:
    """Each side's exponentials for ``parts``'s (spatial, body) stacks of m reads, a (J, n, n) stack or None: rows
    :m each read's final step, then the stage step of each read with one, in read order.  One ``exp_matrix`` per
    side; one whose argument's bytes (``tobytes``, so -0.0 is not 0.0) are in ``memo`` takes the stack there."""
    n, e = len(weights), np.arange(m)
    staged = e[e % n < len(stages)]
    reads, hs = np.concatenate([e, staged]), np.concatenate([np.take(weights, e % n), np.take(stages, staged % n)])

    def exp(x):
        key = (x.shape, x.tobytes())
        return memo[key] if key in memo else memo.setdefault(key, groups.exp_matrix(x))

    return [P if P is None else exp(hs[:, None] * P[reads]) for P in parts]


def _follow(rate: Cascade, m: np.ndarray, ys, times, F, q, stages, weights) -> np.ndarray:
    """The follower's matrices after each step of a block, from its matrix m, stepped on raw matrices by
    ``follow``'s correction at each read, on side q of its feed factors F (``_factors``'s stacks); ``follow``
    reads the unsettled matrix.  The steps, with the rk4_cg stage states, are checked once as a stack
    (``groups._gated``); a stored bad row raises."""
    n, factors, out, staged, cur = len(weights), [], [], [], m
    S, B = (E if E is None else list(E) for E in F)  # each side's feed factors as rows, or None

    def fill(r, x):  # row r of the feed factors, its side q the correction exp(x)
        E = groups.exp_matrix(x)
        return (E, B and B[r]) if q == 0 else (S and S[r], E)

    for e, y in enumerate(ys):
        if isinstance(y, Exception):
            raise y
        c = rate.follow(times[e], cur, y)
        factors.append(fill(e, weights[e % n] * c))
        if e % n < len(stages):
            cur = _chain(m, [fill(len(times) + len(staged), stages[e % n] * c)])
            staged.append(cur)
        else:
            m = cur = _chain(m, factors)
            out.append(m)
            factors = []
    return groups._gated(np.array(staged + out))[len(staged):]


def _replay(rate: Cascade, feed, ys, e0) -> Cascade:
    """``rate`` sensing the block's stored rows from read e0 on, in order, then live ones."""
    rows = iter(range(e0, len(ys)))

    def sense(ts, rates, states):
        e = next(rows, None)
        return rate.sense(ts, rates, states) if e is None else (
            SplitRate(*(x if x is None else x[e:e + 1] for x in (feed.body, feed.spatial))), ys[e:e + 1])

    return Cascade(rate.u, sense, rate.follow)


def integrate_system(rate, config: IntegratorConfig, state0, sides=None, record=None) -> Trajectory:
    """Integrate d/dt state = rate(t, state) with fixed steps, ``_BLOCK`` at a time.

    For an Input or a Cascade, a block pass reads u and senses once, takes stacked exponentials, chains the
    driven states and steps the follower on raw matrices, checks each group component's rows once as a stack
    and writes them into the arrays; for any other rate, and where anything fails, the general loop does.
    ``record(t, state)``, when given, is called once per sample, in order, with the general loop's state dict
    or a block's read-only ``_Sample``s, and returns a dict of scalar extras stored per sample (a step clock,
    say); a non-finite value raises NumericalBlowupError.
    """
    sides, h, cascade = sides or {}, config.h, isinstance(rate, Cascade)
    stages, weights = ([h / d for d in ds] for ds in _STAGES[config.method])
    n, n_steps = len(weights), int(round(config.t_final / h))
    kinds = {k: x.kind for k, x in state0.items() if isinstance(x, GroupElement)}
    arrays = {k: np.repeat(np.array([x.matrix if k in kinds else x], float), n_steps + 1, axis=0)
              for k, x in state0.items()}
    ts, extras = np.arange(n_steps + 1) * h, {}

    def keep(samples):  # record(t, state) of each (t, state), in order; its values checked finite
        for t, sample in samples:
            for key, val in (record(t, sample) if record is not None else {}).items():
                if not math.isfinite(val):
                    raise NumericalBlowupError(f"non-finite recorded value at t={t:.6g}", t=t)
                extras.setdefault(key, []).append(float(val))

    state = dict(state0)
    keep([(0.0, state)])
    for i0 in range(0, n_steps, _BLOCK):
        i1 = min(i0 + _BLOCK, n_steps)
        times = [i * h + d for i in range(i0, i1) for d in (0.0, *stages)]
        m, memo, at, feed, ys = len(times), {}, {}, None, []  # free the last block's first
        try:  # the block pass: rows i0 + 1 .. i1 of every component
            if not isinstance(rate, Input):
                raise TypeError("not an Input")
            raw = rate.u(read_ts := np.array(times))  # each stack's shape and finiteness checked once below
            driven = {k: x for k, x in state.items() if not cascade or k in raw}
            for k, x in driven.items():
                A, P = arrays[k], None
                if k in kinds:
                    F = _factors(_as_split(raw[k], sides.get(k, "left"), x.kind, (m,)), m, stages, weights, memo)
                    steps = list(zip(*([None] * m if E is None else E[:m] for E in F)))  # (E_s, E_b) of each read
                    A[i0 + 1:i1 + 1] = groups._gated(np.array(list(accumulate(
                        [steps[e:e + n] for e in range(0, m, n)], _chain, initial=A[i0]))[1:]))
                    if n > 1:  # the stage states E_s g E_b at each step's start g, with _chain's bits, checked finite
                        P, (E_s, E_b) = np.repeat(A[i0:i1], n - 1, axis=0), (E if E is None else E[m:] for E in F)
                        P = P if E_s is None else E_s @ P
                        P = P if E_b is None else P @ E_b
                        if not np.isfinite(P).all():
                            raise NumericalBlowupError(f"non-finite rk4_cg stage state of component {k!r}")
                else:
                    V = np.asarray(raw[k])
                    if V.shape != (m, *np.shape(x)) or not np.isfinite(V).all():
                        raise NumericalBlowupError(f"bad rate stack for component {k!r}")
                    ks = [V[j::n] for j in range(n)]
                    A[i0 + 1:i1 + 1] = np.cumsum(np.concatenate([A[i0:i0 + 1], _increment(h, ks)]), axis=0)[1:]
                    if n > 1 and cascade:  # the stage states x + d k_prev at a step's start x, with _advance's bits
                        P = np.repeat(A[i0:i1], n - 1, axis=0)
                        for j, d in enumerate(stages):
                            P[j::n - 1] += d * V[j::n]
                if cascade:  # the states at each read, for sense: a step's start, or a stage state as _step settles it
                    at[k] = np.repeat(A[i0:i1], n, axis=0)
                    if n > 1:
                        at[k][np.arange(m) % n > 0] = P
                        at[k] = groups._gated(at[k]) if k in kinds else at[k]
            if cascade:
                f = next(k for k in state if k not in driven)
                feed, ys = rate.sense(read_ts, {k: raw[k] for k in driven}, at)
                q = 0 if feed.spatial is None else 1  # the side of the feedback
                F = _factors((feed.spatial, feed.body), m, stages, weights, memo)
                arrays[f][i0 + 1:i1 + 1] = _follow(rate, state[f].matrix, ys, times, F, q, stages, weights)
            samples = () if record is None else zip(ts[i0 + 1:i1 + 1].tolist(),
                                                    [_Sample(arrays, kinds, i) for i in range(i0 + 1, i1 + 1)])
        except Exception:  # noqa: BLE001 -- the general loop takes the block and raises its error
            samples = None
        raw = memo = at = F = P = V = ks = steps = None  # freed before the records
        if samples is None:  # the general loop, from the block's start, the block's sensed rows replayed
            for i in range(i0, i1):
                state = _general_step(_replay(rate, feed, ys, (i - i0) * n) if cascade else rate,
                                      config.method, i * h, state, h, sides)
                for k, x in state.items():
                    arrays[k][i + 1] = x.matrix if k in kinds else x
                keep([((i + 1) * h, state)])
        else:
            keep(samples)
            state = dict(_Sample(arrays, kinds, i1))
    return Trajectory(ts, arrays, kinds, {k: np.asarray(v) for k, v in extras.items()})
