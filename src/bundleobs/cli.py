"""Command-line driver: run scenario files, audit symmetry properties.

Scenario files are flat ``key = value`` text (``#`` comments).  Each run
writes ``<name>_trajectory.csv`` and ``<name>_report.txt``; the CSV is
byte-identical for identical scenario + seed.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import actions as ac
from . import bundle, observer, systems
from .errors import BundleobsError, ConfigError, NumericalBlowupError
from .groups import AlgebraElement, GroupElement, exp, log
from .integrate import IntegratorConfig, Trajectory, integrate_system
from .sampling import random_landmarks, rng_from

SYSTEMS = ("attitude", "slam_continuous", "slam_discrete", "sphere_split_demo")
AUDIT_MODES = ("equivariance", "gradient", "autonomy")

_DEFAULTS = {
    "system": "attitude",
    "gain": "1.0",
    "method": "lie_euler",
    "h": "1e-3",
    "t_final": "20.0",
    "projection_interval": "1",
    "initial_error": "0 0 0",
    "noise": "0.0",
    "seed": "42",
    "omega": "standard",
    "n_steps": "50",
    "n_landmarks": "6",
}


def parse_scenario(path: Path) -> dict:
    """Read a flat key = value scenario file into a validated dict."""
    raw = dict(_DEFAULTS)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        raw[key] = value

    if "name" not in raw or not raw["name"]:
        raise ConfigError(f"{path}: scenario needs a nonempty 'name'")
    if raw["system"] not in SYSTEMS:
        raise ConfigError(f"{path}: unknown system {raw['system']!r}; options: {SYSTEMS}")

    try:
        scen = {
            "name": raw["name"],
            "system": raw["system"],
            "gain": float(raw["gain"]),
            "method": raw["method"],
            "h": float(raw["h"]),
            "t_final": float(raw["t_final"]),
            "projection_interval": int(raw["projection_interval"]),
            "initial_error": np.array([float(x) for x in raw["initial_error"].split()]),
            "noise": float(raw["noise"]),
            "seed": int(raw["seed"]),
            "omega": raw["omega"],
            "n_steps": int(raw["n_steps"]),
            "n_landmarks": int(raw["n_landmarks"]),
            "out_dir": raw.get("out_dir", "."),
        }
    except ValueError as exc:
        raise ConfigError(f"{path}: bad numeric value: {exc}") from exc
    numbers = [scen["gain"], scen["h"], scen["t_final"], scen["noise"], *scen["initial_error"]]
    if not np.isfinite(numbers).all():
        raise ConfigError(f"{path}: gain, h, t_final, noise and initial_error must be finite")
    if scen["gain"] <= 0:
        raise ConfigError(f"{path}: gain must be > 0")
    if scen["noise"] < 0:
        raise ConfigError(f"{path}: noise must be >= 0")
    least = {"slam_continuous": 1, "slam_discrete": 4}.get(scen["system"], 0)
    if scen["n_landmarks"] < least:
        raise ConfigError(f"{path}: {scen['system']} needs n_landmarks >= {least}")
    return scen


def _integrator_config(scen: dict) -> IntegratorConfig:
    try:
        return IntegratorConfig(
            method=scen["method"],
            h=scen["h"],
            t_final=scen["t_final"],
            projection_interval=scen["projection_interval"],
        )
    except BundleobsError as exc:
        raise ConfigError(str(exc)) from exc


def _omega_fn(spec: str):
    if spec == "standard":
        return lambda t: np.array([np.sin(t), np.cos(2.0 * t), 0.5])
    vals = np.array([float(x) for x in spec.split()])
    if vals.shape != (3,):
        raise ConfigError(f"omega must be 'standard' or three floats, got {spec!r}")
    return lambda t: vals


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, rows: list[dict], n_state: int, n_est: int) -> None:
    header = (
        ["t"]
        + [f"state_{i}" for i in range(n_state)]
        + [f"estimate_{i}" for i in range(n_est)]
        + ["Ve", "zeta_e_norm"]
    )
    lines = [", ".join(header)]
    for row in rows:
        vals = [row["t"], *row["state"], *row["estimate"], row["Ve"], row["zeta_e_norm"]]
        if not np.all(np.isfinite(vals)):
            raise NumericalBlowupError("non-finite value in trajectory output", t=row["t"])
        lines.append(", ".join(_fmt(v) for v in vals))
    path.write_text("\n".join(lines) + "\n")


def _monotone_verdict(ve: np.ndarray, slack: float = 1e-9) -> str:
    return "yes" if np.all(np.diff(ve) <= slack) else "no"


def _traj_rows(traj: Trajectory, state_key: str, est_key: str) -> list[dict]:
    rows = []
    ve = traj.extras["Ve"]
    zn = traj.extras["zeta_e_norm"]
    for i, (t, state) in enumerate(zip(traj.times, traj.states)):
        rows.append(
            {
                "t": t,
                "state": state[state_key].matrix.ravel(),
                "estimate": state[est_key].matrix.ravel(),
                "Ve": ve[i],
                "zeta_e_norm": zn[i],
            }
        )
    return rows


def _run_attitude(scen: dict) -> tuple[list[dict], list[str], int, int]:
    config = _integrator_config(scen)
    err = scen["initial_error"]
    if err.shape != (3,):
        raise ConfigError("attitude initial_error must be an axis-angle 3-vector")
    R0 = exp(AlgebraElement("so3", err))
    att = systems.AttitudeScenario(
        omega=_omega_fn(scen["omega"]),
        gain=scen["gain"],
        noise_amp=scen["noise"],
        seed=scen["seed"],
    )
    traj = systems.simulate_attitude_observer(R0, GroupElement.identity("SO3"), att, config)
    rows = _traj_rows(traj, "R", "Rhat")
    final = traj.states[-1]
    e_g = observer.group_error(systems.attitude_problem(), final["R"], final["Rhat"])
    angle = log(e_g).norm()
    ve = np.array([r["Ve"] for r in rows])
    report = [
        f"final_Ve: {_fmt(ve[-1])}",
        f"final_error_angle_rad: {_fmt(angle)}",
        f"Ve_monotone_nonincreasing: {_monotone_verdict(ve)}",
    ]
    return rows, report, 9, 9


def _run_slam_continuous(scen: dict) -> tuple[list[dict], list[str], int, int]:
    config = _integrator_config(scen)
    err = scen["initial_error"]
    if err.shape not in ((3,), (6,)):
        raise ConfigError("slam initial_error must be a 6-vector twist")
    if err.shape == (3,):
        err = np.concatenate([np.zeros(3), err])
    rng = rng_from(scen["seed"])
    L = random_landmarks(rng, scen["n_landmarks"])
    S0 = exp(AlgebraElement("se3", err))

    def twist(t):
        return AlgebraElement(
            "se3", np.array([0.2, 0.0, 0.1, np.sin(t), np.cos(2.0 * t), 0.5])
        )

    traj = systems.simulate_slam_observer(
        S0,
        GroupElement.identity("SE3"),
        L,
        twist,
        scen["gain"],
        config,
        noise_amp=scen["noise"],
        seed=scen["seed"],
    )
    rows = _traj_rows(traj, "S", "Shat")
    final = traj.states[-1]
    e_g = observer.group_error(systems.slam_problem(L), final["S"], final["Shat"])
    ve = np.array([r["Ve"] for r in rows])
    report = [
        f"final_Ve: {_fmt(ve[-1])}",
        f"final_error_twist_norm: {_fmt(log(e_g).norm())}",
        f"Ve_monotone_nonincreasing: {_monotone_verdict(ve)}",
    ]
    return rows, report, 16, 16


def _run_slam_discrete(scen: dict) -> tuple[list[dict], list[str], int, int]:
    rng = rng_from(scen["seed"])
    L = random_landmarks(rng, scen["n_landmarks"])
    err = scen["initial_error"]
    S0 = exp(AlgebraElement("se3", err)) if err.shape == (6,) else GroupElement.identity("SE3")

    def twist(t):
        return AlgebraElement(
            "se3", np.array([0.3, -0.1, 0.2, np.sin(t), np.cos(2.0 * t), 0.5])
        )

    poses, measurements = systems.simulate_slam_poses(
        S0, L, twist, scen["n_steps"], scen["h"]
    )
    if scen["noise"] > 0.0:
        measurements = [
            np.vstack([M[:3] + rng.uniform(-scen["noise"], scen["noise"], size=M[:3].shape), M[3:]])
            for M in measurements
        ]
    recovered = systems.recover_pose_chain(measurements)
    rows = []
    max_err = 0.0
    for k, Sk in enumerate(recovered):
        true_rel = poses[k].inverse() @ poses[k + 1]
        err_fro = float(np.linalg.norm(Sk.matrix - true_rel.matrix))
        max_err = max(max_err, err_fro)
        rows.append(
            {
                "t": k * scen["h"],
                "state": true_rel.matrix.ravel(),
                "estimate": Sk.matrix.ravel(),
                "Ve": err_fro**2,
                "zeta_e_norm": err_fro,
            }
        )
    report = [
        f"final_Ve: {_fmt(rows[-1]['Ve'])}",
        f"max_recovery_error: {_fmt(max_err)}",
        f"Ve_monotone_nonincreasing: {_monotone_verdict(np.array([r['Ve'] for r in rows]), 1e-12)}",
    ]
    return rows, report, 16, 16


def _run_sphere_split_demo(scen: dict) -> tuple[list[dict], list[str], int, int]:
    config = _integrator_config(scen)
    q0 = np.array([2.0, 1.0, -0.5]) + scen["initial_error"][:3]

    def velocity(t):
        return np.array([np.cos(t), -0.5 * np.sin(2.0 * t), 0.3])

    def rate(t, state):
        return {"q": systems.sphere_vector_field(ac.Point(ac.R3, state["q"]), velocity(t))}

    traj = integrate_system(rate, config, {"q": q0})
    rows = []
    for t, state in zip(traj.times, traj.states):
        q = state["q"]
        v = velocity(t)
        hor, ver = bundle.sphere_split(q, v)
        r, R = bundle.givens_section(q)
        rec = hor * R.matrix[:, 0] + r * (R.matrix @ ver.matrix[:, 0])
        rows.append(
            {
                "t": t,
                "state": q,
                "estimate": rec,
                "Ve": float(np.dot(rec - v, rec - v)),
                "zeta_e_norm": ver.norm(),
            }
        )
    report = [
        f"final_Ve: {_fmt(rows[-1]['Ve'])}",
        f"max_split_residual: {_fmt(max(np.sqrt(r['Ve']) for r in rows))}",
        f"Ve_monotone_nonincreasing: {_monotone_verdict(np.array([r['Ve'] for r in rows]), 1e-12)}",
    ]
    return rows, report, 3, 3


_RUNNERS = {
    "attitude": _run_attitude,
    "slam_continuous": _run_slam_continuous,
    "slam_discrete": _run_slam_discrete,
    "sphere_split_demo": _run_sphere_split_demo,
}


def run_scenario(path: Path, out_dir: Path | None = None) -> int:
    """Execute one scenario file; returns a process exit code."""
    try:
        scen = parse_scenario(path)
        target = Path(out_dir) if out_dir is not None else Path(scen["out_dir"])
        target.mkdir(parents=True, exist_ok=True)
        rows, report, n_state, n_est = _RUNNERS[scen["system"]](scen)
        write_csv(target / f"{scen['name']}_trajectory.csv", rows, n_state, n_est)
        header = [f"scenario: {scen['name']}", f"system: {scen['system']}"]
        (target / f"{scen['name']}_report.txt").write_text("\n".join(header + report) + "\n")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


# -- audits --

def _audit_equivariance(samples: int, seed: int) -> list[tuple[str, float, float]]:
    att_state = ac.group_translation("SO3", "right")

    def att_input(g, om):
        return g.inverse().matrix @ om

    att_out = ac.so3_on_direction_pair("right")
    prob_att = systems.attitude_problem()

    def att_vf(p, u):
        return systems.attitude_vector_field(p, AlgebraElement("so3", u))

    slam_act = ac.slam_action(6)
    slam_out = ac.trivial_action("SE3", ac.LANDMARKS, "right", _slam_y_sample)

    def _sample_omega(rng):
        return rng.normal(size=3)

    results = [
        (
            "attitude vector field",
            ac.check_equivariance_vf(
                att_vf, att_state, att_input, samples=samples, seed=seed,
                sample_input=_sample_omega,
            ),
            1e-10,
        ),
        (
            "attitude output",
            ac.check_equivariance_output(
                lambda p: prob_att.output(p.value), att_state, att_out,
                samples=samples, seed=seed,
            ),
            1e-10,
        ),
        (
            "slam vector field",
            ac.check_equivariance_vf(
                systems.slam_vector_field, slam_act, None, samples=samples, seed=seed,
                sample_input=_sample_slam_input,
            ),
            1e-10,
        ),
        (
            "slam output",
            ac.check_equivariance_output(
                _slam_output, slam_act, slam_out, samples=samples, seed=seed
            ),
            1e-10,
        ),
    ]
    return results


def _slam_output(p: ac.Point) -> ac.Point:
    S, L = p.value
    return ac.Point(ac.LANDMARKS, S.inverse().matrix @ L)


def _slam_y_sample(rng):
    return ac.Point(ac.LANDMARKS, random_landmarks(rng, 6))


def _sample_slam_input(rng):
    from .sampling import random_algebra

    return (random_algebra("se3", rng), np.vstack([rng.normal(size=(3, 6)), np.zeros((1, 6))]))


def _audit_gradient(samples: int, seed: int) -> list[tuple[str, float, float]]:
    prob = systems.attitude_problem(analytic=False)
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(samples):
        from .sampling import random_rotation

        g_est = random_rotation(rng)
        y = systems.measure_attitude(random_rotation(rng))
        num = observer.zeta_e_numeric(prob, g_est, y)
        ana = systems.attitude_zeta_e(g_est, y)
        denom = max(ana.norm(), 1e-12)
        worst = max(worst, float(np.linalg.norm(num.vec - ana.vec)) / denom)
    return [("attitude zeta_e analytic vs numeric (relative)", worst, 1e-5)]


def _audit_autonomy(samples: int, seed: int) -> list[tuple[str, float, float]]:
    rng = rng_from(seed)
    from .sampling import random_rotation

    config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=2.0)
    e0 = exp(AlgebraElement("so3", np.array([0.5, -0.3, 0.8])))
    att = systems.AttitudeScenario(omega=_omega_fn("standard"))
    prob = systems.attitude_problem()
    worst = 0.0
    for _ in range(max(1, min(samples, 3))):
        R_a = random_rotation(rng)
        R_b = random_rotation(rng)
        traj_a = systems.simulate_attitude_observer(e0.inverse() @ R_a, R_a, att, config)
        traj_b = systems.simulate_attitude_observer(e0.inverse() @ R_b, R_b, att, config)
        for sa, sb in zip(traj_a.states, traj_b.states):
            ea = observer.group_error(prob, sa["R"], sa["Rhat"])
            eb = observer.group_error(prob, sb["R"], sb["Rhat"])
            worst = max(worst, float(np.linalg.norm(ea.matrix - eb.matrix)))
    return [("attitude error-dynamics autonomy (Frobenius)", worst, 1e-6)]


_AUDITS = {
    "equivariance": _audit_equivariance,
    "gradient": _audit_gradient,
    "autonomy": _audit_autonomy,
}


def run_audit(mode: str, samples: int, seed: int) -> int:
    if samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return 2
    if mode not in _AUDITS:
        print(f"error: unknown audit mode {mode!r}; options: {AUDIT_MODES}", file=sys.stderr)
        return 2
    ok = True
    for name, residual, tol in _AUDITS[mode](samples, seed):
        status = "ok" if residual <= tol else "FAIL"
        ok = ok and residual <= tol
        print(f"{name}: max residual {residual:.3e} (tol {tol:.0e}) {status}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bundleobs-sim",
        description="Run symmetry-bundle observer scenarios and property audits.",
    )
    parser.add_argument("--jobs", type=int, default=1, help="scenario files run concurrently")
    parser.add_argument("--out-dir", type=Path, default=None, help="directory for CSV/report output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one or more scenario files")
    p_run.add_argument("scenario", type=Path, nargs="+")

    p_audit = sub.add_parser("audit", help="check symmetry/gradient/autonomy properties")
    p_audit.add_argument("mode", choices=AUDIT_MODES)
    p_audit.add_argument("--samples", type=int, default=100)
    p_audit.add_argument("--seed", type=int, default=42)

    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    if args.command == "audit":
        return run_audit(args.mode, args.samples, args.seed)

    if args.jobs == 1 or len(args.scenario) == 1:
        codes = [run_scenario(path, args.out_dir) for path in args.scenario]
    else:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(lambda p: run_scenario(p, args.out_dir), args.scenario))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
