"""Fixed-step time integration on Lie groups and product state spaces.

States map names to GroupElement or numpy arrays (array rates step by
Euler/RK4).  Every group rate is a SplitRate: a plain AlgebraElement or
coordinate vector is its body part on side "left" and its spatial part on
side "right".  Its parts, length-checked once, step group states as vectors
under one rule, m <- exp_matrix(h spatial) @ m @ exp_matrix(h body), in
``lie_euler``, each ``rk4_cg`` stage and final composition, and ``lie_step``.
Each step's matrix goes once through the validating GroupElement constructor,
whose defect ||R^T R - I|| stays at rounding level; above 1e-12 the drift
gate takes one Björck step, which squares it, instead of an SVD projection.
An ``Input`` rate reads only the time and is stepped open-loop, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import groups
from .errors import BundleobsError, ConfigError, KindMismatchError, NumericalBlowupError
from .groups import AlgebraElement, GroupElement

LIE_EULER = "lie_euler"
RK4_CG = "rk4_cg"

# upper bound on round(t_final / h); the longest shipped scenario has 20,000 steps
MAX_STEPS = 1_000_000
_BLOCK = 128  # steps per open-loop block, which bounds its stacked rates and exponentials
# h / divisor: the stage steps, then the composition weights (a lie_euler step has one weight)
_STAGES = {LIE_EULER: ((), (1,)), RK4_CG: ((2, 2, 1), (6, 3, 3, 6))}


@dataclass(frozen=True)
class Input:
    """A rate that reads only the time, u(t) -> rate dict, which ``integrate_system`` steps
    open-loop; as ``rate(t, state)`` it is u(t), so a wrapped Input runs the general loop."""

    u: Callable

    def __call__(self, t, state):
        return self.u(t)


@dataclass(frozen=True)
class SplitRate:
    """Group rate g' = spatial^ g + g body^; each part is an AlgebraElement or its vector.

    Stepped as exp(h spatial) g exp(h body), which keeps discretizations of
    observer loops exactly equivariant (the correction and the feedforward
    commute through the group error).
    """

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


@dataclass
class Trajectory:
    """Time-indexed samples of the integrated state plus recorded extras."""

    times: np.ndarray
    states: list
    extras: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)


def _as_split(r, side: str, g: GroupElement) -> tuple:
    """``r`` as (spatial, body) coordinate vectors of ``g``'s algebra, None for a missing part."""
    spatial, body = (r.spatial, r.body) if isinstance(r, SplitRate) else (None, r) if side == "left" else (r, None)
    return _coords(spatial, g), _coords(body, g)


def _coords(x, g: GroupElement) -> np.ndarray | None:
    """The coordinates of an AlgebraElement or vector ``x`` (None stays None), checked to fit g's algebra."""
    if x is None:
        return None
    v = x.vec if isinstance(x, AlgebraElement) else np.asarray(x, dtype=float)
    if v.shape != (3 if g.kind == groups.SO3 else 6,):
        raise KindMismatchError(f"cannot step {g.kind} by a rate with coordinates of shape {v.shape}")
    return v


def _step(g: GroupElement, steps) -> GroupElement:
    """Apply the stepping rule to g's matrix for each (h, (spatial, body)) in ``steps``;
    validate the result, then take one Björck step if its rotation drifted."""
    m = g.matrix
    for h, (spatial, body) in steps:
        if spatial is not None:
            m = groups.exp_matrix(h * spatial) @ m
        if body is not None:
            m = m @ groups.exp_matrix(h * body)
    return _settle(g.kind, m)


def _settle(kind: str, m: np.ndarray) -> GroupElement:
    """m through the validating constructor, then one Björck step if its rotation drifted."""
    g = GroupElement(kind, m)
    if g.defect <= groups._DRIFT_TOL:
        return g
    R = g.rotation()
    m = g.matrix.copy()
    m[:3, :3] = 0.5 * (R @ (3.0 * np.eye(3) - R.T @ R))  # R (3I - R^T R) / 2, translation kept
    return GroupElement(kind, m)


def lie_step(g: GroupElement, xi: AlgebraElement | np.ndarray, h: float, side: str = "left") -> GroupElement:
    """One exponential step: g exp(h xi) (left) or exp(h xi) g (right)."""
    if h <= 0:
        raise ConfigError("step size must be positive")
    return _step(g, ((h, _as_split(xi, side, g)),))


def _rates(rate, t, state, sides):
    """rate(t, state) with every group rate as (spatial, body) vectors, checked finite."""
    out = dict(rate(t, state))
    for name, value in state.items():
        if isinstance(value, GroupElement):
            out[name] = _as_split(out[name], sides.get(name, "left"), value)
            arrays = [x for x in out[name] if x is not None]
        else:
            arrays = [np.asarray(out[name])]
        if not all(map(groups._all_finite, arrays)):
            raise NumericalBlowupError(f"non-finite rate for component {name!r} at t={t:.6g}", t=t)
    return out


def _increment(h, ks):
    """The vector step h k1 (lie_euler) or (h / 6)(k1 + 2 k2 + 2 k3 + k4) (rk4_cg)."""
    return h * ks[0] if len(ks) == 1 else (h / 6) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])


def _advance(state, rates, h):
    """One lie_euler step (or rk4_cg stage) of every component."""
    out = {}
    for name, value in state.items():
        if isinstance(value, GroupElement):
            out[name] = _step(value, ((h, rates[name]),))
        else:
            out[name] = np.asarray(value) + h * np.asarray(rates[name])
    return out


def _rk4_cg_step(rate, t, state, h, sides):
    """Four frozen-algebra stages; group parts advance by composed
    exponentials (exact for constant rates, order >= 2 otherwise)."""
    stages, weights = ([h / d for d in ds] for ds in _STAGES[RK4_CG])
    ks = [_rates(rate, t, state, sides)]
    for d in stages:  # rate j + 1 is read on the state stepped by d along rate j
        ks.append(_rates(rate, t + d, _advance(state, ks[-1], d), sides))
    out = {}
    for name, value in state.items():
        if isinstance(value, GroupElement):
            out[name] = _step(value, [(w, k[name]) for w, k in zip(weights, ks)])
        else:
            out[name] = np.asarray(value) + _increment(h, [np.asarray(k[name]) for k in ks])
    return out


def _open_loop(rate: Input, config: IntegratorConfig, state, sides, snapshot) -> None:
    """The steps of ``integrate_system`` for an Input, ``_BLOCK`` at a time: rates read in the
    general loop's order, one stacked ``exp_matrix`` per component side, factors chained as
    ``_step`` chains them, and vectors stepped by one cumsum.  The rk4_cg stage states are
    only checked, stacked after the block.  A rate check that fails raises once the steps
    before it are through."""
    h = config.h
    stages, weights = ([h / d for d in ds] for ds in _STAGES[config.method])
    n, n_steps = len(weights), int(round(config.t_final / h))
    for i0 in range(0, n_steps, _BLOCK):
        ks, error = [], None
        try:
            for i in range(i0, min(i0 + _BLOCK, n_steps)):
                for d in (0.0, *stages):
                    ks.append(_rates(rate, i * h + d, state, sides))
        except BundleobsError as exc:  # a rate check failed: raised below, after the steps before it
            error = exc
        done, paths, checks = len(ks) // n, {}, {}
        for name, x0 in state.items():
            reads = [k[name] for k in ks]
            if isinstance(x0, GroupElement):
                paths[name], stage = _open_loop_factors(reads, len(x0.matrix), stages, weights, done)
                checks[name] = (stage, [])  # each read's stage factors, and the states they step from
            elif done:
                inc = _increment(h, [np.array(reads[j:done * n:n]) for j in range(n)])
                paths[name] = np.cumsum(np.concatenate([np.asarray(x0)[None], inc]), axis=0)[1:]
        for j in range(done):
            new = {}
            for name, x in state.items():
                if isinstance(x, GroupElement):
                    m = x.matrix
                    checks[name][1].append(m)
                    for E_s, E_b in paths[name][j * n:j * n + n]:  # as _step chains them
                        m = m if E_s is None else E_s @ m
                        m = m if E_b is None else m @ E_b
                    new[name] = _settle(x.kind, m)
                else:
                    new[name] = paths[name][j]
            state = new
            snapshot(i0 + j + 1, (i0 + j + 1) * h, state)
        if stages:  # rk4_cg: the stage states the general loop would build, checked as its constructor would
            for name, ((S_s, S_b), starts) in checks.items():
                P = np.array(starts + [state[name].matrix])[np.arange(len(ks)) // n]  # each read's start
                if not np.isfinite(S_s @ P @ S_b).all():
                    raise NumericalBlowupError(f"non-finite rk4_cg stage state of component {name!r}")
        if error is not None:
            raise error


def _open_loop_factors(reads, dim, stages, weights, done) -> tuple[list, np.ndarray]:
    """(E_s, E_b) for each read of the first ``done`` steps (None for a missing part), and the
    stacks (E_s, E_b) of each read's stage step (the identity where it has none), from one
    stacked ``exp_matrix`` per side."""
    n = len(weights)
    factors = [[None, None] for _ in range(done * n)]
    stage = np.tile(np.eye(dim), (2, len(reads), 1, 1))
    for side in (0, 1):
        jobs = [(e, weights[e % n]) for e in range(done * n) if reads[e][side] is not None]
        n_final = len(jobs)
        jobs += [(e, stages[e % n]) for e, r in enumerate(reads) if r[side] is not None and e % n < len(stages)]
        if jobs:
            w = np.array([w for _, w in jobs])[:, None]
            E = groups.exp_matrix(w * np.array([reads[e][side] for e, _ in jobs]))
            for (e, _), F in zip(jobs, E[:n_final]):
                factors[e][side] = F
            stage[side, [e for e, _ in jobs[n_final:]]] = E[n_final:]
    return factors, stage


def integrate_system(rate, config: IntegratorConfig, state0, sides=None, record=None) -> Trajectory:
    """Integrate d/dt state = rate(t, state) with fixed steps.

    ``record(t, state)``, when given, returns a dict of scalar extras stored
    per sample (e.g. error cost, innovation norm).
    """
    sides = sides or {}
    n_steps = int(round(config.t_final / config.h))
    times = np.empty(n_steps + 1)
    states = [None] * (n_steps + 1)
    extras: dict[str, list] = {}

    def snapshot(i, t, state):
        times[i] = t
        states[i] = state
        if record is not None:
            for key, val in record(t, state).items():
                if not math.isfinite(val):
                    raise NumericalBlowupError(f"non-finite recorded value at t={t:.6g}", t=t)
                extras.setdefault(key, []).append(float(val))

    state = dict(state0)
    snapshot(0, 0.0, state)
    if isinstance(rate, Input):
        _open_loop(rate, config, state, sides, snapshot)
    else:
        for i in range(1, n_steps + 1):
            t = (i - 1) * config.h
            if config.method == LIE_EULER:
                state = _advance(state, _rates(rate, t, state, sides), config.h)
            else:
                state = _rk4_cg_step(rate, t, state, config.h, sides)
            snapshot(i, i * config.h, state)

    return Trajectory(times, states, {k: np.asarray(v) for k, v in extras.items()})
