"""Seeded random samplers used by checkers, audits, and tests."""

from __future__ import annotations

import numpy as np

from . import groups
from .groups import SE3, SO3, AlgebraElement, GroupElement

DEFAULT_SEED = 42


def rng_from(seed=DEFAULT_SEED) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_algebra(kind: str, rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement(kind, rng.normal(size=3 if kind == "so3" else 6))


def random_rotation(rng: np.random.Generator) -> GroupElement:
    axis = random_unit(rng)
    return groups.exp(AlgebraElement("so3", rng.uniform(0.0, np.pi - 0.1) * axis))


def random_group(kind: str, rng: np.random.Generator) -> GroupElement:
    R = random_rotation(rng)
    if kind == SO3:
        return R
    m = np.eye(4)
    m[:3, :3] = R.matrix
    m[:3, 3] = rng.normal(size=3)
    return GroupElement(SE3, m)


def random_landmarks(rng: np.random.Generator, n: int = 6) -> np.ndarray:
    """4xN homogeneous landmark columns sampled in the unit cube.

    Resampled until the 4xN matrix is well conditioned, which rules out
    coplanar configurations.
    """
    while True:
        L = np.vstack([rng.uniform(-0.5, 0.5, size=(3, n)) + rng.normal(size=(3, 1)), np.ones((1, n))])
        if np.linalg.cond(L) < 1e6:
            return L
