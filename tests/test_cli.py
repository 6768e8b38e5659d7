"""Scenario CLI: parsing, runs, reports, audits, exit codes, determinism."""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundleobs import cli, integrate
from bundleobs.errors import ConfigError, NumericalBlowupError


def write_scenario(path, **overrides):
    fields = {
        "name": "case",
        "system": "attitude",
        "gain": "1.0",
        "h": "1e-2",
        "t_final": "1.0",
        "initial_error": "0.3 -0.2 0.4",
        "seed": "7",
    }
    fields.update(overrides)
    path.write_text("\n".join(f"{k} = {v}" for k, v in fields.items()) + "\n")
    return path


class TestScenarioParsing:
    def test_comments_and_defaults(self, tmp_path):
        f = tmp_path / "a.scn"
        f.write_text("# a comment\nname = demo\nsystem = attitude  # trailing\n")
        scen = cli.parse_scenario(f)
        assert scen["name"] == "demo"
        assert scen["gain"] == 1.0
        assert scen["seed"] == 42

    def test_missing_name(self, tmp_path):
        f = tmp_path / "a.scn"
        f.write_text("system = attitude\n")
        with pytest.raises(Exception):
            cli.parse_scenario(f)

    def test_unknown_system_exit_2(self, tmp_path):
        f = write_scenario(tmp_path / "a.scn", system="pendulum")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 2

    def test_unreadable_file_exit_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "missing.scn")]) == 2

    def test_bad_gain_exit_2(self, tmp_path):
        f = write_scenario(tmp_path / "a.scn", gain="-1.0")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 2


class TestRun:
    def test_zero_initial_error_flat_ve(self, tmp_path):
        f = write_scenario(tmp_path / "a.scn", name="flat", initial_error="0 0 0")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 0
        rows = (tmp_path / "flat_trajectory.csv").read_text().splitlines()
        header = rows[0].split(", ")
        assert header[0] == "t"
        assert header[-2:] == ["Ve", "zeta_e_norm"]
        ve_col = header.index("Ve")
        ve = np.array([float(r.split(", ")[ve_col]) for r in rows[1:]])
        assert np.all(ve <= 1e-12)

    def test_report_written(self, tmp_path):
        f = write_scenario(tmp_path / "a.scn", name="rep")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 0
        report = (tmp_path / "rep_report.txt").read_text()
        assert "final_Ve:" in report
        assert "final_error_angle_rad:" in report
        assert "Ve_monotone_nonincreasing: yes" in report

    def test_byte_identical_reruns(self, tmp_path):
        f = write_scenario(tmp_path / "a.scn", name="det", noise="0.05")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["--out-dir", str(out1), "run", str(f)]) == 0
        assert cli.main(["--out-dir", str(out2), "run", str(f)]) == 0
        a = (out1 / "det_trajectory.csv").read_bytes()
        b = (out2 / "det_trajectory.csv").read_bytes()
        assert a == b

    def test_slam_discrete_recovery_report(self, tmp_path):
        f = write_scenario(
            tmp_path / "a.scn", name="slamd", system="slam_discrete", n_steps="50", h="0.05"
        )
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 0
        report = (tmp_path / "slamd_report.txt").read_text()
        line = [l for l in report.splitlines() if l.startswith("max_recovery_error:")][0]
        assert float(line.split(":")[1]) < 1e-9

    def test_sphere_demo_runs(self, tmp_path):
        f = write_scenario(tmp_path / "a.scn", name="sph", system="sphere_split_demo")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 0
        assert (tmp_path / "sph_trajectory.csv").exists()

    @pytest.mark.parametrize("method", ["lie_euler", "rk4_cg"])
    def test_sphere_demo_reads_velocities_once_per_block(self, tmp_path, monkeypatch, method):
        # the integrator reads the velocity once per block of read times, the split once at the sample times
        n_steps = 2 * integrate._BLOCK + 22  # blocks of _BLOCK, _BLOCK and 22 steps
        scen = cli.parse_scenario(write_scenario(tmp_path / "a.scn", name="sph", system="sphere_split_demo",
                                                 method=method, h="0.01", t_final=str(n_steps / 100)))
        times = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def cos(self, t):
                times.append(t)
                return np.cos(t)

        monkeypatch.setattr(cli, "np", CountingNumpy())
        (t, *_), _ = cli._run_sphere_split_demo(scen)
        reads = 1 if method == "lie_euler" else 4
        assert len(t) == n_steps + 1
        assert all(isinstance(ts, np.ndarray) and ts.ndim == 1 for ts in times)
        assert [len(ts) for ts in times] == [k * reads for k in (integrate._BLOCK, integrate._BLOCK, 22)] + [n_steps + 1]
        assert times[-1].tobytes() == t.tobytes()

    def test_scenarios_run_one_after_another(self, tmp_path):
        f1 = write_scenario(tmp_path / "a.scn", name="j1")
        f2 = write_scenario(tmp_path / "b.scn", name="j2", system="sphere_split_demo")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f1), str(f2)]) == 0
        assert (tmp_path / "j1_trajectory.csv").exists()
        assert (tmp_path / "j2_trajectory.csv").exists()

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        f = write_scenario(tmp_path / "a.scn", name="j1")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--jobs", "2", "--out-dir", str(tmp_path), "run", str(f)])
        assert exc.value.code == 2
        assert "usage: bundleobs-sim" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_trajectory.csv"))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_exit_3(self, tmp_path):
        f = write_scenario(
            tmp_path / "a.scn", name="boom", omega="1e200 1e200 0", h="1e200", t_final="1e201"
        )
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 3

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # zeta_e vanishes at the antipode, so the error stays at pi, where log is ambiguous
            ({"initial_error": "3.14159265358979 0 0"}, "ambiguous"),
            # h * omega is finite, but its squared norm overflows: sin(inf) in the exponential
            ({"omega": "1e160 0 0"}, "overflows"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_library_error_exit_3(self, tmp_path, capsys, overrides, message):
        f = write_scenario(tmp_path / "a.scn", name="lib", **overrides)
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.glob("*_trajectory.csv"))

    @pytest.mark.filterwarnings("error")
    def test_failed_run_creates_no_directory(self, tmp_path):
        f = write_scenario(tmp_path / "a.scn", name="lib", omega="1e160 0 0")
        out = tmp_path / "fresh" / "out"
        assert cli.main(["--out-dir", str(out), "run", str(f)]) == 3
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.filterwarnings("error")
    def test_sphere_split_at_origin_exit_3(self, tmp_path, capsys):
        # q(0) = (2, 1, -0.5) + initial_error is the origin, which the Givens section excludes
        f = write_scenario(tmp_path / "a.scn", name="origin", system="sphere_split_demo",
                           initial_error="-2 -1 0.5")
        out = tmp_path / "out"
        assert cli.main(["--out-dir", str(out), "run", str(f)]) == 3
        assert capsys.readouterr().err == "error: the origin is excluded from the sphere bundle\n"
        assert not out.exists()

    def test_all_values_finite(self, tmp_path):
        f = write_scenario(tmp_path / "a.scn", name="fin", system="slam_continuous",
                           initial_error="0.1 0 0.1 0.2 -0.1 0", t_final="0.5")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 0
        rows = (tmp_path / "fin_trajectory.csv").read_text().splitlines()[1:]
        vals = np.array([[float(x) for x in r.split(", ")] for r in rows])
        assert np.all(np.isfinite(vals))


class TestAudit:
    def test_equivariance_exit_0(self, capsys):
        assert cli.main(["audit", "equivariance", "--samples", "25"]) == 0
        out = capsys.readouterr().out
        assert "attitude vector field" in out
        assert "slam output" in out

    def test_gradient_exit_0(self, capsys):
        assert cli.main(["audit", "gradient", "--samples", "25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "attitude zeta_e analytic vs numeric (relative)",
            "slam zeta_e analytic vs numeric (relative)",
        ]
        assert all(line.endswith("(tol 1e-05) ok") for line in lines)

    def test_autonomy_exit_0(self):
        assert cli.main(["audit", "autonomy", "--samples", "1"]) == 0

    def test_autonomy_stdout(self, capsys):
        assert cli.main(["audit", "autonomy", "--samples", "3"]) == 0
        assert capsys.readouterr().out == (
            "attitude error-dynamics autonomy (Frobenius): max residual 2.203e-14 (tol 1e-06) ok\n")

    def test_zero_samples_exit_2(self):
        assert cli.main(["audit", "gradient", "--samples", "0"]) == 2

    def test_unknown_mode_exit_2(self, capsys):
        # argparse refuses it first on the command line; run_audit refuses it for direct callers
        assert cli.run_audit("nope", 10, 42) == 2
        assert capsys.readouterr().err.startswith("error: unknown audit mode 'nope'; options: ")

    @pytest.mark.parametrize("mode", cli.AUDIT_MODES)
    def test_negative_seed_exit_2(self, mode, capsys):
        assert cli.main(["audit", mode, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestInputContract:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("h", "nan"),
            ("t_final", "inf"),
            ("gain", "nan"),
            ("noise", "nan"),
            ("initial_error", "0 0 0 0 0 -inf"),
        ],
    )
    def test_non_finite_exit_2(self, tmp_path, capsys, key, value):
        f = write_scenario(tmp_path / "a.scn", system="slam_continuous", **{key: value})
        with pytest.raises(ConfigError, match="finite"):
            cli.parse_scenario(f)
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("system, n", [("slam_continuous", "0"), ("slam_discrete", "3")])
    def test_too_few_landmarks_exit_2(self, tmp_path, capsys, system, n):
        f = write_scenario(tmp_path / "a.scn", system=system, n_landmarks=n)
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 2
        assert "n_landmarks" in capsys.readouterr().err

    @pytest.mark.parametrize("system, n", [("slam_continuous", "1"), ("slam_discrete", "4")])
    def test_fewest_landmarks_run(self, tmp_path, system, n):
        f = write_scenario(tmp_path / "a.scn", system=system, n_landmarks=n, t_final="0.2")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 0

    @pytest.mark.parametrize("n_landmarks", [10, 4096, cli.MAX_LANDMARKS])
    def test_measurement_bound_parse_only(self, tmp_path, n_landmarks):
        # parsed, never run: at the bound the measurement stack alone takes 320 MB
        most = cli.MAX_MEASUREMENTS // n_landmarks - 1  # most n_steps with (n_steps + 1) * n_landmarks in bound
        at = write_scenario(tmp_path / "a.scn", system="slam_discrete", n_landmarks=n_landmarks, n_steps=most)
        assert cli.parse_scenario(at)["n_steps"] == most
        for n_steps in (most + 1, 1_000_000):
            over = write_scenario(tmp_path / "b.scn", system="slam_discrete", n_landmarks=n_landmarks, n_steps=n_steps)
            with pytest.raises(ConfigError, match=r"\(n_steps \+ 1\) \* n_landmarks <= 10000000"):
                cli.parse_scenario(over)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"system": "slam_discrete", "n_steps": "0"}, "n_steps"),
            ({"seed": "-1"}, "seed"),
            ({"omega": "1 nan 2"}, "finite"),
            ({"omega": "1 2"}, "omega"),
            ({"omega": "fast"}, "bad numeric value"),
            ({"system": "sphere_split_demo", "initial_error": "0.1 0.2"}, "initial_error"),
            ({"initial_error": "0.1 0.2 0.3 0 0 0"}, "initial_error"),
            ({"system": "slam_continuous", "n_landmarks": "1000000000"}, "n_landmarks"),
            ({"n_landmarks": "1000000000"}, "n_landmarks"),
            # the uniform draw from [-noise, noise] overflows its range
            ({"noise": "1.7976931348623157e308"}, "noise"),
        ],
    )
    def test_rejected_at_parse_exit_2(self, tmp_path, capsys, overrides, message):
        f = write_scenario(tmp_path / "a.scn", **overrides)
        with pytest.raises(ConfigError, match=message):
            cli.parse_scenario(f)
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*_trajectory.csv"))

    @pytest.mark.parametrize("key", ["projection_interval", "gian"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, key):
        # a removed option or a misspelt one would otherwise run with defaults
        f = write_scenario(tmp_path / "a.scn", **{key: "10"})
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            cli.parse_scenario(f)
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_trajectory.csv"))

    @pytest.mark.parametrize("system", ["attitude", "slam_continuous", "sphere_split_demo"])
    def test_too_many_steps_exit_2(self, tmp_path, capsys, system):
        f = write_scenario(tmp_path / "a.scn", system=system, h="1e-300", t_final="1e-290")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 2
        assert "steps" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_trajectory.csv"))

    @pytest.mark.parametrize(
        "name, message",
        [("{tmp}/elsewhere/x", "plain file name"), ("a\0b", "NUL"), (".", "plain file name"),
         ("..", "plain file name")],
        ids=["absolute", "nul", "dot", "dotdot"],
    )
    def test_name_not_plain_file_name_exit_2(self, tmp_path, capsys, name, message):
        f = write_scenario(tmp_path / "a.scn", name=name.format(tmp=tmp_path))
        with pytest.raises(ConfigError, match=message):
            cli.parse_scenario(f)
        assert cli.main(["--out-dir", str(tmp_path / "out"), "run", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert [p.name for p in tmp_path.rglob("*")] == ["a.scn"]

    @pytest.mark.parametrize("text", ["seed = 7\0\n", "# \0\n"], ids=["value", "comment"])
    def test_nul_in_any_line_exit_2(self, tmp_path, text):
        f = write_scenario(tmp_path / "a.scn")
        f.write_text(f.read_text() + text)
        with pytest.raises(ConfigError, match="NUL"):
            cli.parse_scenario(f)
        assert cli.main(["--out-dir", str(tmp_path / "out"), "run", str(f)]) == 2
        assert not (tmp_path / "out").exists()

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "a.scn"
        f.write_bytes(b"name = \xff\n")
        assert cli.main(["--out-dir", str(tmp_path / "out"), "run", str(f)]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_path_is_directory_exit_2(self, tmp_path, capsys):
        f = write_scenario(tmp_path / "a.scn", name="d", t_final="0.02")
        (tmp_path / "out" / "d_trajectory.csv").mkdir(parents=True)
        assert cli.main(["--out-dir", str(tmp_path / "out"), "run", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert written == ["a.scn", "out", "out/d_trajectory.csv"]

    def test_constant_omega_runs(self, tmp_path):
        f = write_scenario(tmp_path / "a.scn", omega="0.1 -0.2 0.3", t_final="0.2")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 0

    def test_slam_discrete_angular_initial_error(self, tmp_path):
        # a 3-vector initial_error is the angular part of the twist, as for slam_continuous
        a = write_scenario(tmp_path / "a.scn", name="d3", system="slam_discrete",
                           n_steps="5", h="0.05", initial_error="0.1 -0.2 0.3")
        b = write_scenario(tmp_path / "b.scn", name="d6", system="slam_discrete",
                           n_steps="5", h="0.05", initial_error="0 0 0 0.1 -0.2 0.3")
        assert cli.main(["--out-dir", str(tmp_path), "run", str(a), str(b)]) == 0
        d3 = (tmp_path / "d3_trajectory.csv").read_bytes()
        assert d3 == (tmp_path / "d6_trajectory.csv").read_bytes()


# scenario values for the fuzz test below; each run keeps a tiny valid scenario
# except for up to two keys, so that many runs get past parsing
_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "1.7976931348623157e308", "0", "-0.0", "-1", "0.5"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_VECTOR = st.one_of(*(st.lists(_NUMBER, min_size=n, max_size=n) for n in (3, 6)),
                    st.lists(_NUMBER, max_size=7)).map(" ".join)
_FUZZ = {
    "name": st.one_of(st.sampled_from(["/abs/x", "a/b", ".", "..", "a\0b", "x" * 300]), st.text(max_size=12)),
    "method": st.sampled_from(["rk4_cg", "euler", ""]),
    "gain": _NUMBER,
    "noise": _NUMBER,
    "initial_error": _VECTOR,
    "omega": _VECTOR,
    # with h >= 0.005 and t_final <= 0.02 a run is at most 4 steps long
    "h": st.sampled_from(["nan", "inf", "-1e300", "1e300", "0", "-0.01", "1e-300", "0.005", "0.02"]),
    "t_final": st.sampled_from(["nan", "inf", "-1e300", "-0.01", "0", "1e-300", "0.01"]),
    "n_steps": st.sampled_from(["-1", "0", "1"]),
    "n_landmarks": st.sampled_from(["-1", "0", "1", "3", "4", str(cli.MAX_LANDMARKS), str(cli.MAX_LANDMARKS + 1)]),
    "seed": st.sampled_from(["0", "-1", str(2**70)]),
}


@st.composite
def _scenarios(draw):
    fields = {"name": "fz", "system": draw(st.sampled_from(cli.SYSTEMS)), "h": "0.01", "t_final": "0.02",
              "n_steps": "3", "noise": draw(st.sampled_from(["0", "0.01"]))}
    for key in draw(st.lists(st.sampled_from(sorted(_FUZZ)), max_size=2, unique=True)):
        fields[key] = draw(_FUZZ[key])
    return fields


# the valid scenario under the fuzz test's examples; each example replaces one field by a
# value that once ended in a traceback or in a write outside --out-dir
_FIXED = {"name": "fz", "system": "attitude", "h": "0.01", "t_final": "0.02", "n_steps": "3", "noise": "0"}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_scenarios())
@example({**_FIXED, "name": "/abs/x"})
@example({**_FIXED, "name": "a\0b"})
@example({**_FIXED, "noise": "1.7976931348623157e308"})
def test_fuzzed_scenarios_exit_0_2_or_3(fields):
    with tempfile.TemporaryDirectory() as tmp:
        f, out = Path(tmp) / "fuzz.scn", Path(tmp) / "out"
        f.write_text("\n".join(f"{k} = {v}" for k, v in fields.items()) + "\n", encoding="utf-8")
        rc = cli.main(["--out-dir", str(out), "run", str(f)])
        # a run that succeeds writes its CSV and report, and only those, inside --out-dir
        assert rc in (2, 3) or (rc == 0 and len(list(out.iterdir())) == 2)


REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "demos" / "scenarios"

# sha256 of the demo outputs; sphere_split has no group state, so the stepping rule
# of the group integrators cannot move its bytes.  slam_continuous changed when its
# zeta_e became closed-form: no CSV value moved more than 4.8e-10 from the central difference
GOLDEN_SHA256 = {
    "slam_continuous_report.txt": "51f8a280ccb9e3abf64165e204a4e3187a19b55e68f3ff15c31a6a70520780c6",
    "slam_continuous_trajectory.csv": "a95f48f8ea3ca906d8c9f92608686c40261413940670c38d7ee08ef52d32ae59",
    "slam_discrete_report.txt": "da5b3f367e4949918781872b9018a6323b49a67ff43dee9d579267f27e19809e",
    "slam_discrete_trajectory.csv": "35648df6c3b7dfa645a20ddc8a7d388fa197e58769122b9d2c8bf1401cdf09b3",
    "sphere_split_report.txt": "b0f1dc2845176e37e38364c8667c1c13510d42358c79c9fd577c44f9f7daef99",
    "sphere_split_trajectory.csv": "4aa2ee641ceacdf4ccc522c941baadd5c8e1cccf388e747633493e20d97a75dd",
}


@pytest.mark.parametrize("demo", ["slam_continuous", "slam_discrete", "sphere_split"])
def test_demo_outputs_byte_identical(tmp_path, demo):
    assert cli.main(["--out-dir", str(tmp_path), "run", str(SCENARIOS / f"{demo}.scn")]) == 0
    for suffix in ("_report.txt", "_trajectory.csv"):
        digest = hashlib.sha256((tmp_path / f"{demo}{suffix}").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[demo + suffix], demo + suffix


# sha256 of the stdout of each demo script, run as its own process on this checkout's src/
GOLDEN_SHA256_DEMO_STDOUT = {
    "01_lie_group_basics.py": "3a8a296526aa567d24977c65f067b013556ff7332e03d5619e18066030287081",
    "02_sphere_bundle.py": "a5a0b38c58dc66d160cdd89436fd3e73e7a85d6f9b6662afaf3a7f6e7d6b0814",
    "03_attitude_observer.py": "08c77856cc586059a3a814a71b19ae5575c5a1f54bf4042c681d7ca3a76c9c1c",
    "04_slam.py": "c459ef64a1b979a06c108cd9d7c4d091e1b96ab79a6bd120f5ae7f7bdb5a59b9",
}


@pytest.mark.parametrize("script", sorted(GOLDEN_SHA256_DEMO_STDOUT))
def test_demo_script_stdout_byte_identical(script):
    run = subprocess.run([sys.executable, str(REPO / "demos" / script)], cwd=REPO, capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(REPO / "src")}, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == GOLDEN_SHA256_DEMO_STDOUT[script]


# sha256 of two longer row passes, taken before recovery and split ran stacked: a noisy
# slam_discrete chain of 200 steps over 150 landmarks, and a sphere split of 1001 rows
GOLDEN_SHA256_ROWS = {
    "noisy_discrete_report.txt": "a03ad1a14f56c9141296450da96e52e59dac244ce2adf2f3c7c038bbccf18268",
    "noisy_discrete_trajectory.csv": "0540040ba777b8a5de4b4f064d52f7381087d41d304319bd05d29af24e3f096e",
    "sphere_1ms_report.txt": "326fa0c369424342b2fc60600e78fefaf6653566a23c2cc6d50f5473749cefae",
    "sphere_1ms_trajectory.csv": "ba273102295dd39d9a77e8999d2b5b2dcea7cf94218d789eaff7830d363a24f9",
}
ROW_PASSES = {
    "noisy_discrete": {"system": "slam_discrete", "n_steps": "200", "h": "0.02", "n_landmarks": "150",
                       "noise": "0.01", "initial_error": "0.1 -0.2 0.3 0.4 -0.5 0.6"},
    "sphere_1ms": {"system": "sphere_split_demo", "h": "1e-3", "t_final": "1.0"},
}


@pytest.mark.parametrize("name", sorted(ROW_PASSES))
def test_row_passes_byte_identical(tmp_path, name):
    f = write_scenario(tmp_path / f"{name}.scn", name=name, **ROW_PASSES[name])
    assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 0
    for suffix in ("_report.txt", "_trajectory.csv"):
        digest = hashlib.sha256((tmp_path / f"{name}{suffix}").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256_ROWS[name + suffix], name + suffix


# sha256 of the attitude demos cut to t_final = 1.0 (the full runs take seconds)
GOLDEN_SHA256_1S = {
    "attitude_60deg_report.txt": "63d4ec6eb5329760df36aeb8008155a296417119a770a67b896c89416937db56",
    "attitude_60deg_trajectory.csv": "1ed4fa3f9e22c5eee103e2154076beca2d4a6b4bf192625d7f5fe67878a9fa15",
    "attitude_noisy_report.txt": "08da6901ceee2aba47690ed46c3789cce7ffa9863dd48323d5bce946d26e0c61",
    "attitude_noisy_trajectory.csv": "f1d7ed53a5d86b816c3de563f7e3836d0eb71bae709c5b185710d2a6a273f86d",
}


@pytest.mark.parametrize("demo", ["attitude_60deg", "attitude_noisy"])
def test_attitude_demo_1s_byte_identical(tmp_path, demo):
    text = (SCENARIOS / f"{demo}.scn").read_text()
    assert "t_final = 20.0" in text
    f = tmp_path / f"{demo}.scn"
    f.write_text(text.replace("t_final = 20.0", "t_final = 1.0"))
    assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 0
    for suffix in ("_report.txt", "_trajectory.csv"):
        digest = hashlib.sha256((tmp_path / f"{demo}{suffix}").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256_1S[demo + suffix], demo + suffix


class TestWriteCsv:
    EDGE = [-0.0, 5e-324, 1.7976931348623157e308, 1e-17, 1.0]

    @staticmethod
    def _columns(values):
        """The write_csv arguments by CSV column: row i has t = Ve = values[i], state = values,
        estimate = values reversed and zeta_e_norm = values[i - 1]."""
        v = np.array(values)
        n = len(v)
        return {"t": v.copy(), "state": np.tile(v, (n, 1)), "estimate": np.tile(v[::-1], (n, 1)),
                "Ve": v.copy(), "zeta_e_norm": np.roll(v, 1)}

    def test_bytes_match_17_significant_digits(self, tmp_path):
        cols = self._columns(self.EDGE)
        cli.write_csv(tmp_path / "edge.csv", *cols.values())
        n = len(self.EDGE)
        header = ["t", *(f"state_{i}" for i in range(n)), *(f"estimate_{i}" for i in range(n)), "Ve", "zeta_e_norm"]
        lines = [", ".join(header)] + [
            ", ".join(format(float(v), ".17g") for v in [cols["t"][i], *cols["state"][i], *cols["estimate"][i],
                                                         cols["Ve"][i], cols["zeta_e_norm"][i]])
            for i in range(n)
        ]
        assert (tmp_path / "edge.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert "-0, 4.9406564584124654e-324, 1.7976931348623157e+308, 1.0000000000000001e-17, 1, " in lines[1]

    def test_rows_stream_across_blocks(self, tmp_path):
        t = np.arange(2 * cli._CSV_BLOCK + 3) * 0.5
        cli.write_csv(tmp_path / "long.csv", t, np.stack([t, -t], axis=1), t[:, None], t, t)
        lines = (tmp_path / "long.csv").read_text().splitlines()
        assert lines[0] == "t, state_0, state_1, estimate_0, Ve, zeta_e_norm"
        assert lines[1:] == [", ".join(format(v, ".17g") for v in (x, x, -x, x, x, x)) for x in t.tolist()]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key", ["t", "state", "Ve", "zeta_e_norm", "estimate"])
    def test_non_finite_row_writes_nothing(self, tmp_path, bad, key):
        cols = self._columns(self.EDGE)
        if cols[key].ndim == 2:
            cols[key][-1, 1] = bad
        else:
            cols[key][-1] = bad
        target = tmp_path / "out" / "edge.csv"
        with pytest.raises(NumericalBlowupError):
            cli.write_csv(target, *cols.values())
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["state", "estimate", "Ve", "zeta_e_norm"])
    def test_error_names_first_bad_row(self, tmp_path, key):
        cols = self._columns(self.EDGE)
        cols[key][2] = np.nan  # a middle row; a later row is bad too
        cols["zeta_e_norm"][4] = np.inf
        with pytest.raises(NumericalBlowupError) as err:
            cli.write_csv(tmp_path / "edge.csv", *cols.values())
        assert err.value.t == self.EDGE[2]
        assert not (tmp_path / "edge.csv").exists()


def test_clean_demo_runs_take_no_general_step(tmp_path):
    # a block that falls back runs whole on the general loop with the same bytes, so a clean run that
    # silently left the block path would show only as lost time: here any general step fails the run
    noisy = write_scenario(tmp_path / "noisy.scn", name="noisy_1s", h="1e-3", t_final="1.0", noise="0.02",
                           initial_error="0 0.6283185307179586 0.8377580409572781", seed="42")
    with mock.patch.object(integrate, "_general_step", side_effect=AssertionError("general step")):
        for path in (SCENARIOS / "slam_continuous.scn", SCENARIOS / "slam_discrete.scn", SCENARIOS / "sphere_split.scn",
                     noisy):
            assert cli.run_scenario(path, tmp_path) == 0


_READ_H = st.one_of(st.sampled_from([1e-3, 5e-3, 1e-2, 0.02, 0.05]), st.floats(1e-4, 0.5))


class TestStackedTrigBits:
    """The CLI's inputs take ``np.sin`` and ``np.cos`` of a block's read times i h + d, rk4_cg's stage offsets
    d included, as one stack; each row must have the bits of the per-scalar calls at its read, or the CSVs
    would change with the block's size and place.  On a host whose vector kernels round differently this
    fails here, not silently in the output."""

    @settings(max_examples=200, deadline=None)
    @given(h=_READ_H, method=st.sampled_from(["lie_euler", "rk4_cg"]), i0=st.integers(0, integrate.MAX_STEPS - 1),
           steps=st.integers(1, integrate._BLOCK))
    @example(h=1e-3, method="rk4_cg", i0=19_968, steps=32)  # the last block of a 20-s run at h = 1e-3
    def test_each_row_has_the_per_scalar_bits(self, h, method, i0, steps):
        stages = [h / d for d in integrate._STAGES[method][0]]
        times = [i * h + d for i in range(i0, i0 + steps) for d in (0.0, *stages)]
        ts = np.array(times)
        got = np.column_stack([cli._omega_fn("standard", (0.3, -0.1, 0.2))(ts), np.cos(ts), -0.5 * np.sin(2.0 * ts)])
        want = np.array([[0.3, -0.1, 0.2, np.sin(t), np.cos(2.0 * t), 0.5, np.cos(t), -0.5 * np.sin(2.0 * t)]
                         for t in times])
        bad = np.flatnonzero((got.view(np.int64) != want.view(np.int64)).any(axis=1))
        assert not bad.size, f"read {bad[0]} at t={times[bad[0]]!r}: {got[bad[0]]} != {want[bad[0]]}"
        assert cli._omega_fn("standard")(ts).tobytes() == np.ascontiguousarray(want[:, 3:6]).tobytes()
