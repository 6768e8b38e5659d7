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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import groups
from .errors import ConfigError, KindMismatchError, NumericalBlowupError
from .groups import AlgebraElement, GroupElement

LIE_EULER = "lie_euler"
RK4_CG = "rk4_cg"

# upper bound on round(t_final / h); the longest shipped scenario has 20,000 steps
MAX_STEPS = 1_000_000


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
    g = GroupElement(g.kind, m)
    if g.defect <= groups._DRIFT_TOL:
        return g
    R = g.rotation()
    m = g.matrix.copy()
    m[:3, :3] = 0.5 * (R @ (3.0 * np.eye(3) - R.T @ R))  # R (3I - R^T R) / 2, translation kept
    return GroupElement(g.kind, m)


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
    k1 = _rates(rate, t, state, sides)
    k2 = _rates(rate, t + h / 2, _advance(state, k1, h / 2), sides)
    k3 = _rates(rate, t + h / 2, _advance(state, k2, h / 2), sides)
    k4 = _rates(rate, t + h, _advance(state, k3, h), sides)
    weights = ((h / 6, k1), (h / 3, k2), (h / 3, k3), (h / 6, k4))
    out = {}
    for name, value in state.items():
        if isinstance(value, GroupElement):
            out[name] = _step(value, [(w, k[name]) for w, k in weights])
        else:
            a, b, c, d = (np.asarray(k[name]) for k in (k1, k2, k3, k4))
            out[name] = np.asarray(value) + (h / 6) * (a + 2 * b + 2 * c + d)
    return out


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
    for i in range(1, n_steps + 1):
        t = (i - 1) * config.h
        if config.method == LIE_EULER:
            state = _advance(state, _rates(rate, t, state, sides), config.h)
        else:
            state = _rk4_cg_step(rate, t, state, config.h, sides)
        snapshot(i, i * config.h, state)

    return Trajectory(times, states, {k: np.asarray(v) for k, v in extras.items()})
