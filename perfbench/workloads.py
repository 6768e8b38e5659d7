"""Seeded scenario generators for the three benchmark workloads.

Each generator takes the run's seed and writes flat ``key = value``
scenario files, the only input the program receives.  Step counts are
fixed per workload; the seed draws initial errors, rates, landmark counts
and noise seeds.  So every seed gives the same amount of work and the same
mix of step kinds.

Workload notes (why each was chosen, what it stresses, what it bypasses)
------------------------------------------------------------------------

attitude_track
    Attitude observer on SO(3): ``lie_euler``, h = 1e-3, analytic zeta_e,
    gain 1.  Two initial errors with angles drawn from [0.3, 2.5] rad, well
    away from the pi exclusion band of ``log``.  Each error runs noiseless
    with ``omega = standard`` and with a seed-drawn constant omega (the pair
    checks the paper's autonomy claim: equal Ve columns), and once with
    ``noise = 0.02``.  One more noiseless run with ``omega = standard`` lasts
    10 s, the length of acceptance criterion 4.  Its error has criterion 7's
    angle, pi / 3, about a drawn axis, so seeds differ only in the axis.  With
    a drawn angle in [0.3, 2.5] the p50 step time spread by 0.046 (quartile
    distance over median) over five seeds; with the fixed angle, by 0.016.
    Stresses: ``groups`` (validated ``GroupElement`` construction, about 30 %
    of a step; SVD ``project_to_group``, about 22 %) and
    ``systems.attitude_zeta_e`` (``np.cross``, about 25 %).
    Bypasses: ``actions`` does almost nothing; ``bundle`` is not reached.
    This is the shape behind acceptance criteria 4 and 7.
    Why the 10-s run: the 1-s runs sample only the transient phase.  One
    traced run each, on a 2-core x86 sandbox (Python 3.11.7, numpy 2.4.6),
    of criterion 4's e(0) for 1 s and 10 s and of criterion 7's 20-s
    scenario gave the same layer mix: ``groups`` self share 0.50 / 0.51 /
    0.51, ``systems`` 0.245 / 0.244 / 0.242, ``cli`` 0.058 / 0.046 / 0.043,
    10 ``GroupElement`` and 3 ``exp`` per step in all three.  Two things
    differed.  The correction ``exp`` takes its Taylor branch once the
    estimate converges: ``taylor_frac`` read 0 / 0.21 / 0.27.  And
    ``Trajectory`` memory grows with the run: the peak resident set rose
    by 6 / 29 / 53 MiB over the 35 MiB of the imported program.  So each
    pass adds one criterion-length run; the 20-s length of criterion 7
    would double the pass.

slam_track
    Gradient pose observer on SE(3): ``lie_euler``, h = 5e-3, numeric zeta_e.
    Seed-drawn initial twists; ``n_landmarks`` in {6, 12, 24}, each noiseless
    and with small noise.
    Stresses: ``observer.zeta_e_numeric`` (about 78 % of the time; 12 SE(3)
    ``exp`` and 24 ``actions.act`` per evaluation, twice per step), so the
    ``observer`` and ``actions`` layers and SE(3) ``exp``.  Varying N shows
    the landmark working set once Python overhead stops hiding it (at the
    seed commit 6 and 24 landmarks cost the same).
    Bypasses: no analytic zeta_e, no ``bundle``, no ``rk4_cg``.
    Gain is scaled as 1.5 * 6 / N: the cost sums over landmarks, so explicit
    Euler stiffness grows with N.  Measured on a 2-core x86 sandbox
    (Python 3.11.7, numpy 2.4.6): ``n_landmarks = 60`` with gain 1.5 and
    h = 1e-2 diverges (final Ve 1.9e5, twist error 55).  Stiffness also grows
    with the landmarks' distance from the origin, which the program draws
    from the scenario seed: at h = 1e-2 the N = 6 run of seed 52 diverged
    (Ve 3.2 to 882) while seeds 40-59 otherwise converged.  Hence h = 5e-3
    over 1 s (200 steps, as many as 2 s at 1e-2): there every noiseless run
    of seeds 40-59 ends below 0.02 of its initial Ve.  A run that still
    diverges is counted as failed, never dropped.

recover_split
    No observer.  ``slam_discrete`` (SE(3) propagation by four-stage
    ``rk4_cg`` composition, then closed-form relative-pose recovery with
    SE(3) projection) with ``n_landmarks`` drawn in [6, 200], noiseless,
    beside ``sphere_split_demo`` at h = 1e-3 (Euler on R^3 minus the origin,
    then Givens-built SO(3) sections per row).
    Stresses: ``groups`` through composition, projection of recovered poses
    and Givens construction; ``bundle`` (used only here); CSV writing, a
    larger share of a sphere run than of an observer run.
    Bypasses: ``observer`` and ``actions.act``.  A change that speeds the
    observer path but taxes construction, projection or CSV writing shows
    up here.
    Per-step intervals mix two populations: about 77 % cheap sphere steps
    and 23 % ``rk4_cg`` steps, so ``step_us_p50`` reads a sphere step and
    ``step_us_p90`` an ``rk4_cg`` step, each well inside its population.

Held-out seed: ``HELD_OUT_SEED`` was not run while the benchmark was built,
so a later claim can be re-checked on it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HELD_OUT_SEED = 7919

# Noiseless observer runs must end below this share of their initial Ve.
# At the seed commit the worst drawn cases end near 0.2 (attitude, 2.5 rad
# after 1 s) and 0.02 (SLAM after 1 s); the 10-s attitude run ends far below.
CONVERGENCE_FRACTION = {"attitude_track": 0.5, "slam_track": 0.1}
AUTONOMY_TOL = 1e-6  # acceptance criterion 4
RECOVERY_TOL = 1e-9  # acceptance criterion 9
SPLIT_TOL = 1e-12


def _fmt(x) -> str:
    return " ".join(repr(float(v)) for v in np.atleast_1d(x))


def _write(out_dir: Path, name: str, fields: dict) -> Path:
    path = out_dir / f"{name}.scn"
    lines = [f"name = {name}"] + [f"{k} = {v}" for k, v in fields.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _attitude_track(rng, out_dir):
    """Returns (paths, autonomy groups): noiseless runs sharing e(0)."""
    paths, groups = [], []
    for j in range(2):
        e0 = rng.uniform(0.3, 2.5) * _unit(rng)
        const_omega = rng.uniform(-1.0, 1.0, size=3)
        base = {"system": "attitude", "method": "lie_euler", "h": "1e-3",
                "t_final": "1.0", "gain": "1.0", "initial_error": _fmt(e0)}
        pair = []
        for tag, omega, noise in (("std", "standard", "0.0"),
                                  ("const", _fmt(const_omega), "0.0"),
                                  ("noisy", "standard", "0.02")):
            name = f"att{j}_{tag}"
            seed = int(rng.integers(0, 2**31))
            paths.append(_write(out_dir, name,
                                {**base, "omega": omega, "noise": noise, "seed": seed}))
            if noise == "0.0":
                pair.append(name)
        groups.append(pair)
    e0 = np.pi / 3 * _unit(rng)
    paths.append(_write(out_dir, "att_long", {
        "system": "attitude", "method": "lie_euler", "h": "1e-3", "t_final": "10.0",
        "gain": "1.0", "initial_error": _fmt(e0), "omega": "standard", "noise": "0.0",
        "seed": int(rng.integers(0, 2**31)),
    }))
    return paths, groups


def _slam_track(rng, out_dir):
    paths = []
    for n in (6, 12, 24):
        for noise in ("0.0", "0.005"):
            lin = rng.uniform(-0.3, 0.3, size=3)
            ang = rng.uniform(0.2, 0.8) * _unit(rng)
            name = f"slam_n{n}_{'noisy' if noise != '0.0' else 'clean'}"
            paths.append(_write(out_dir, name, {
                "system": "slam_continuous", "method": "lie_euler", "h": "5e-3",
                "t_final": "1.0", "gain": repr(1.5 * 6 / n), "n_landmarks": n,
                "initial_error": _fmt(np.concatenate([lin, ang])), "noise": noise,
                "seed": int(rng.integers(0, 2**31)),
            }))
    return paths, []


def _recover_split(rng, out_dir):
    paths = []
    for j in range(6):
        twist = np.concatenate([rng.uniform(-0.5, 0.5, size=3),
                                rng.uniform(0.1, 1.0) * _unit(rng)])
        paths.append(_write(out_dir, f"disc{j}", {
            "system": "slam_discrete", "n_steps": 200, "h": "0.02",
            "n_landmarks": int(rng.integers(6, 201)), "initial_error": _fmt(twist),
            "seed": int(rng.integers(0, 2**31)),
        }))
    for j in range(4):
        paths.append(_write(out_dir, f"sphere{j}", {
            "system": "sphere_split_demo", "h": "1e-3", "t_final": "1.0",
            "initial_error": _fmt(rng.uniform(-0.5, 0.5, size=3)),
            "seed": int(rng.integers(0, 2**31)),
        }))
    return paths, []


WORKLOADS = {
    "attitude_track": _attitude_track,
    "slam_track": _slam_track,
    "recover_split": _recover_split,
}


def generate(workload: str, seed: int, out_dir: Path):
    """Write the workload's scenario files for ``seed``.

    Returns (scenario paths, autonomy groups); each group lists noiseless
    scenarios that share e(0) and must have equal Ve columns.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, out_dir)


def expected_rows(scen: dict) -> int:
    """Trajectory rows ``run_scenario`` writes for a parsed scenario."""
    if scen["system"] == "slam_discrete":
        return int(scen["n_steps"])
    return int(round(float(scen["t_final"]) / float(scen["h"]))) + 1

