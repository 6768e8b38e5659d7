"""Command-line driver: run scenario files, audit symmetry properties.

Scenario files are flat ``key = value`` text (``#`` comments, no unknown keys).
Each run writes ``<name>_trajectory.csv`` and ``<name>_report.txt`` inside
the output directory (``name`` must be a plain file name); the CSV is
byte-identical for identical scenario + seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import actions as ac
from . import bundle, observer, systems
from .errors import BundleobsError, ConfigError, NumericalBlowupError
from .groups import AlgebraElement, GroupElement, exp, inverse_matrix, log, row_dot
from .integrate import Input, IntegratorConfig, integrate_system
from .sampling import random_algebra, random_group, random_landmarks, random_rotation, rng_from

SYSTEMS = ("attitude", "slam_continuous", "slam_discrete", "sphere_split_demo")
AUDIT_MODES = ("equivariance", "gradient", "autonomy")
# upper bounds on n_landmarks and on slam_discrete's (n_steps + 1) * n_landmarks measurement
# columns (32 B each), so a scenario cannot ask for unbounded memory
MAX_LANDMARKS = 10_000
MAX_MEASUREMENTS = 10_000_000
_CSV_BLOCK = 64  # CSV rows turned into Python floats at a time, so memory does not grow with the run
# initial_error lengths each system can use (a 3-vector twist is angular only)
_ERROR_LENGTHS = {"attitude": (3,), "slam_continuous": (3, 6), "slam_discrete": (3, 6),
                  "sphere_split_demo": (3,)}

_DEFAULTS = {
    "system": "attitude",
    "gain": "1.0",
    "method": "lie_euler",
    "h": "1e-3",
    "t_final": "20.0",
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "\0" in line:
            raise ConfigError(f"{path}:{lineno}: NUL byte in scenario line")
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key not in _DEFAULTS and key not in ("name", "out_dir"):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value

    if "name" not in raw or not raw["name"]:
        raise ConfigError(f"{path}: scenario needs a nonempty 'name'")
    # the name becomes part of two file names inside the output directory
    if raw["name"] in (".", "..") or Path(raw["name"]).name != raw["name"]:
        raise ConfigError(f"{path}: name must be a plain file name, got {raw['name']!r}")
    if raw["system"] not in SYSTEMS:
        raise ConfigError(f"{path}: unknown system {raw['system']!r}; options: {SYSTEMS}")

    try:
        omega = raw["omega"]
        if omega != "standard":
            omega = np.array([float(x) for x in omega.split()])
        scen = {
            "name": raw["name"],
            "system": raw["system"],
            "gain": float(raw["gain"]),
            "method": raw["method"],
            "h": float(raw["h"]),
            "t_final": float(raw["t_final"]),
            "initial_error": np.array([float(x) for x in raw["initial_error"].split()]),
            "noise": float(raw["noise"]),
            "seed": int(raw["seed"]),
            "omega": omega,
            "n_steps": int(raw["n_steps"]),
            "n_landmarks": int(raw["n_landmarks"]),
            "out_dir": raw.get("out_dir", "."),
        }
    except ValueError as exc:
        raise ConfigError(f"{path}: bad numeric value: {exc}") from exc
    omega = () if isinstance(omega, str) else omega
    if len(omega) not in (0, 3):
        raise ConfigError(f"{path}: omega must be 'standard' or three numbers, got {raw['omega']!r}")
    numbers = [scen["gain"], scen["h"], scen["t_final"], scen["noise"], *scen["initial_error"], *omega]
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{path}: gain, h, t_final, noise, initial_error and omega must be finite")
    if scen["gain"] <= 0:
        raise ConfigError(f"{path}: gain must be > 0")
    if not 0 <= 2 * scen["noise"] < math.inf:  # noise is drawn from [-noise, noise]
        raise ConfigError(f"{path}: noise must be >= 0 with 2 * noise finite")
    if scen["seed"] < 0:
        raise ConfigError(f"{path}: seed must be >= 0")
    if len(scen["initial_error"]) not in _ERROR_LENGTHS[scen["system"]]:
        lengths = " or ".join(map(str, _ERROR_LENGTHS[scen["system"]]))
        raise ConfigError(f"{path}: {scen['system']} needs an initial_error of {lengths} numbers")
    least = {"slam_continuous": 1, "slam_discrete": 4}.get(scen["system"], 0)
    if not least <= scen["n_landmarks"] <= MAX_LANDMARKS:
        raise ConfigError(f"{path}: {scen['system']} needs {least} <= n_landmarks <= {MAX_LANDMARKS}")
    if scen["system"] == "slam_discrete" and not 0 < scen["n_steps"] < MAX_MEASUREMENTS // scen["n_landmarks"]:
        raise ConfigError(f"{path}: slam_discrete needs n_steps >= 1 and "
                          f"(n_steps + 1) * n_landmarks <= {MAX_MEASUREMENTS}")
    return scen


def _integrator_config(scen: dict) -> IntegratorConfig:
    try:
        return IntegratorConfig(method=scen["method"], h=scen["h"], t_final=scen["t_final"])
    except BundleobsError as exc:
        raise ConfigError(str(exc)) from exc


def _omega_fn(omega, lin=()):
    """omega(ts), stacked at a block's read times: for "standard", the constants ``lin`` then the profile
    (sin t, cos 2t, 0.5), each row with the bits of one read's; else the constant vector, broadcast."""
    if not isinstance(omega, str):
        return lambda ts: np.broadcast_to(omega, (len(ts), len(omega)))
    return lambda ts: np.column_stack([np.tile(lin, (len(ts), 1)), np.sin(ts), np.cos(2.0 * ts), np.full_like(ts, 0.5)])


def _initial_twist(err: np.ndarray) -> np.ndarray:
    """An se(3) initial error; a 3-vector is the angular part."""
    return np.concatenate([np.zeros(3), err]) if err.shape == (3,) else err


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, t, state, estimate, ve, zeta_e_norm) -> None:
    """Write the columns t, state (n, a), estimate (n, b), Ve and zeta_e_norm as one table.
    The table is checked finite before the directory is made, then streamed in row blocks."""
    table = np.column_stack([t, state, estimate, ve, zeta_e_norm])
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise NumericalBlowupError("non-finite value in trajectory output", t=table[bad.argmax(), 0])
    header = (["t"] + [f"state_{i}" for i in range(state.shape[1])]
              + [f"estimate_{i}" for i in range(estimate.shape[1])] + ["Ve", "zeta_e_norm"])
    line = ", ".join(["%.17g"] * len(header)) + "\n"  # %.17g prints as format(float(v), ".17g")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(", ".join(header) + "\n")
        for k in range(0, len(table), _CSV_BLOCK):
            f.writelines(line % tuple(row) for row in table[k:k + _CSV_BLOCK].tolist())


def _report(ve, label: str, value: float, slack: float) -> list[str]:
    return [f"final_Ve: {_fmt(ve[-1])}", f"{label}: {_fmt(value)}",
            f"Ve_monotone_nonincreasing: {'yes' if np.all(np.diff(ve) <= slack) else 'no'}"]


def _run_observer(scen: dict) -> tuple[tuple, list[str]]:
    """The gradient observer run of the attitude and slam_continuous systems."""
    config = _integrator_config(scen)
    if scen["system"] == "attitude":
        prob, measure = systems.attitude_problem(), systems.measure_attitude
        u = _omega_fn(scen["omega"])
        xi0, (true, est), label = scen["initial_error"], ("R", "Rhat"), "final_error_angle_rad"
    else:
        L = random_landmarks(rng_from(scen["seed"]), scen["n_landmarks"])
        prob = systems.slam_problem(L)
        measure = lambda S, *noise: systems.measure_landmarks(S, L, *noise)
        u = _omega_fn("standard", (0.2, 0.0, 0.1))
        xi0, (true, est), label = _initial_twist(scen["initial_error"]), ("S", "Shat"), "final_error_twist_norm"
    state0 = {true: exp(AlgebraElement(prob.algebra_kind, xi0)), est: GroupElement.identity(prob.group_kind)}
    traj = systems.simulate_observer(prob, measure, u, state0, scen["gain"], config, scen["noise"], scen["seed"])
    n, ve = len(traj), traj.extras["Ve"]
    state, estimate = (traj.arrays[name].reshape(n, -1) for name in (true, est))
    final = traj.states[-1]
    error = log(observer.group_error(prob, final[true], final[est])).norm()
    return (traj.times, state, estimate, ve, traj.extras["zeta_e_norm"]), _report(ve, label, error, 1e-9)


def _run_slam_discrete(scen: dict) -> tuple[tuple, list[str]]:
    rng = rng_from(scen["seed"])
    L = random_landmarks(rng, scen["n_landmarks"])
    S0 = exp(AlgebraElement("se3", _initial_twist(scen["initial_error"])))
    twist = _omega_fn("standard", (0.3, -0.1, 0.2))
    poses, measurements = systems.simulate_slam_poses(S0, L, twist, scen["n_steps"], scen["h"])
    if scen["noise"] > 0.0:  # one draw; C order gives each M_k its (3, N) block of the stream in turn
        measurements[:, :3] += rng.uniform(-scen["noise"], scen["noise"], size=measurements[:, :3].shape)
    recovered = systems.recover_pose_chain(measurements)
    true_rel = inverse_matrix(poses[:-1]) @ poses[1:]
    err = np.sqrt(row_dot((recovered - true_rel).reshape(-1, 16))).tolist()  # np.linalg.norm of each difference
    ve = [e**2 for e in err]  # C pow; np.square differs in the last bit of some values
    columns = (np.arange(len(err)) * scen["h"], true_rel.reshape(-1, 16), recovered.reshape(-1, 16), ve, err)
    return columns, _report(ve, "max_recovery_error", max(err), 1e-12)


def _run_sphere_split_demo(scen: dict) -> tuple[tuple, list[str]]:
    config = _integrator_config(scen)
    q0 = ac.Point(ac.R3, np.array([2.0, 1.0, -0.5]) + scen["initial_error"]).value

    def velocity(ts):
        return np.column_stack([np.cos(ts), -0.5 * np.sin(2.0 * ts), np.full_like(ts, 0.3)])

    traj = integrate_system(Input(lambda ts: {"q": velocity(ts)}), config, {"q": q0})
    v = velocity(traj.times)
    q = traj.arrays["q"]
    r, R, hor, ver = bundle.sphere_splits(q, v)
    col = np.stack([np.zeros(len(r)), ver[:, 2], -ver[:, 1]], axis=1)  # hat(ver) e1
    rec = hor[:, None] * R[:, :, 0] + r[:, None] * (R @ col[:, :, None])[:, :, 0]
    d = rec - v
    ve, norms = row_dot(d), np.sqrt(row_dot(ver))
    return (traj.times, q, rec, ve, norms), _report(ve, "max_split_residual", np.sqrt(ve).max(), 1e-12)


_RUNNERS = {
    "attitude": _run_observer,
    "slam_continuous": _run_observer,
    "slam_discrete": _run_slam_discrete,
    "sphere_split_demo": _run_sphere_split_demo,
}


def run_scenario(path: Path, out_dir: Path | None = None) -> int:
    """Execute one scenario file; returns a process exit code."""
    try:
        scen = parse_scenario(path)
        target = Path(out_dir) if out_dir is not None else Path(scen["out_dir"])
        with np.errstate(over="ignore"):  # an overflow ends as NumericalBlowupError, not a warning
            columns, report = _RUNNERS[scen["system"]](scen)
        header = [f"scenario: {scen['name']}", f"system: {scen['system']}"]
        try:
            write_csv(target / f"{scen['name']}_trajectory.csv", *columns)
            (target / f"{scen['name']}_report.txt").write_text("\n".join(header + report) + "\n")
        except OSError as exc:  # e.g. a directory in the way, a name too long, no permission
            raise ConfigError(f"cannot write outputs to {target}: {exc}") from exc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BundleobsError as exc:  # numerical failure: blowup, log branch, projection, rank
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


# -- audits --

def _audit_equivariance(samples: int, seed: int) -> list[tuple[str, float, float]]:
    att_state, slam_act, kw = ac.group_translation("SO3", "right"), ac.slam_action(6), dict(samples=samples, seed=seed)
    residuals = [
        ("attitude vector field", ac.check_equivariance_vf(
            lambda p, u: systems.attitude_vector_field(p, AlgebraElement("so3", u)), att_state,
            lambda g, om: inverse_matrix(g.matrix) @ om, sample_input=lambda rng: rng.normal(size=3), **kw)),
        ("attitude output", ac.check_equivariance_output(
            lambda p: systems.measure_attitude(p.value), att_state, ac.so3_on_direction_pair("right"), **kw)),
        ("slam vector field", ac.check_equivariance_vf(
            systems.slam_vector_field, slam_act, None, sample_input=_sample_slam_input, **kw)),
        ("slam output", ac.check_equivariance_output(lambda p: systems.measure_landmarks(*p.value), slam_act,
                                                     ac.trivial_action("SE3", ac.LANDMARKS, "right"), **kw)),
    ]
    return [(name, residual, 1e-10) for name, residual in residuals]


def _sample_slam_input(rng):
    return (random_algebra("se3", rng), np.vstack([rng.normal(size=(3, 6)), np.zeros((1, 6))]))


def _audit_gradient(samples: int, seed: int) -> list[tuple[str, float, float]]:
    rng = rng_from(seed)
    L = random_landmarks(rng, 6)
    measures = {"attitude": (systems.attitude_problem(), systems.measure_attitude),
                "slam": (systems.slam_problem(L), lambda S: systems.measure_landmarks(S, L))}
    results = []
    for name, (prob, measure) in measures.items():
        worst = 0.0
        for _ in range(samples):
            g_est, y = random_group(prob.group_kind, rng), measure(random_group(prob.group_kind, rng))
            num, ana = observer.zeta_e_numeric(prob, g_est, y), observer.zeta_e(prob, g_est, y)
            worst = max(worst, float(np.linalg.norm(num.vec - ana.vec)) / max(ana.norm(), 1e-12))
        results.append((f"{name} zeta_e analytic vs numeric (relative)", worst, 1e-5))
    return results


def _audit_autonomy(samples: int, seed: int) -> list[tuple[str, float, float]]:
    rng = rng_from(seed)
    config = IntegratorConfig(method="lie_euler", h=1e-3, t_final=2.0)
    e0 = exp(AlgebraElement("so3", np.array([0.5, -0.3, 0.8])))
    att = systems.AttitudeScenario(omega=_omega_fn("standard"))
    prob = systems.attitude_problem()
    worst = 0.0
    for _ in range(max(1, min(samples, 3))):
        runs = [systems.simulate_attitude_observer(e0.inverse() @ R, R, att, config).arrays
                for R in (random_rotation(rng), random_rotation(rng))]
        ea, eb = (observer.group_error(prob, run["R"], run["Rhat"]) for run in runs)  # one stack per run
        worst = max(worst, float(np.sqrt(row_dot((ea - eb).reshape(len(ea), -1))).max()))  # np.linalg.norm bits
    return [("attitude error-dynamics autonomy (Frobenius)", worst, 1e-6)]


_AUDITS = {
    "equivariance": _audit_equivariance,
    "gradient": _audit_gradient,
    "autonomy": _audit_autonomy,
}


def run_audit(mode: str, samples: int, seed: int) -> int:
    if samples < 1 or seed < 0:
        print("error: --samples must be >= 1 and --seed >= 0", file=sys.stderr)
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
    parser.add_argument("--out-dir", type=Path, default=None, help="directory for CSV/report output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one or more scenario files, one after another")
    p_run.add_argument("scenario", type=Path, nargs="+")

    p_audit = sub.add_parser("audit", help="check symmetry/gradient/autonomy properties")
    p_audit.add_argument("mode", choices=AUDIT_MODES)
    p_audit.add_argument("--samples", type=int, default=100)
    p_audit.add_argument("--seed", type=int, default=42)

    args = parser.parse_args(argv)
    if args.command == "audit":
        return run_audit(args.mode, args.samples, args.seed)
    return max([run_scenario(path, args.out_dir) for path in args.scenario])


if __name__ == "__main__":
    sys.exit(main())
