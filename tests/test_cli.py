"""Scenario CLI: parsing, runs, reports, audits, exit codes, determinism."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from bundleobs import cli
from bundleobs.errors import ConfigError


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

    def test_jobs_flag_runs_all(self, tmp_path):
        f1 = write_scenario(tmp_path / "a.scn", name="j1")
        f2 = write_scenario(tmp_path / "b.scn", name="j2", system="sphere_split_demo")
        assert cli.main(["--jobs", "2", "--out-dir", str(tmp_path), "run", str(f1), str(f2)]) == 0
        assert (tmp_path / "j1_trajectory.csv").exists()
        assert (tmp_path / "j2_trajectory.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_exit_3(self, tmp_path):
        f = write_scenario(
            tmp_path / "a.scn", name="boom", omega="1e200 1e200 0", h="1e200", t_final="1e201"
        )
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == 3

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

    def test_gradient_exit_0(self):
        assert cli.main(["audit", "gradient", "--samples", "25"]) == 0

    def test_autonomy_exit_0(self):
        assert cli.main(["audit", "autonomy", "--samples", "1"]) == 0

    def test_zero_samples_exit_2(self):
        assert cli.main(["audit", "gradient", "--samples", "0"]) == 2


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


SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

# sha256 of the demo outputs, unchanged since the library came in
GOLDEN_SHA256 = {
    "slam_continuous_report.txt": "130f6b52903b2884f43540947cc53b8cd8433479e1a7b3099be6bdc1de9197a0",
    "slam_continuous_trajectory.csv": "84371292ddba220b354b7f160d62aa87d0cb1d2b48de8dea0ae6c9a41557bc32",
    "slam_discrete_report.txt": "1f35cbc05f344c6a4a9d1c3c7fa938d0f21a0dcc38dc84031e2a07163ef0b109",
    "slam_discrete_trajectory.csv": "babd3ed596459d23a725f94bd2287229408af206f47a895d46eeaaac1b298e50",
    "sphere_split_report.txt": "b0f1dc2845176e37e38364c8667c1c13510d42358c79c9fd577c44f9f7daef99",
    "sphere_split_trajectory.csv": "4aa2ee641ceacdf4ccc522c941baadd5c8e1cccf388e747633493e20d97a75dd",
}


@pytest.mark.parametrize("demo", ["slam_continuous", "slam_discrete", "sphere_split"])
def test_demo_outputs_byte_identical(tmp_path, demo):
    assert cli.main(["--out-dir", str(tmp_path), "run", str(SCENARIOS / f"{demo}.scn")]) == 0
    for suffix in ("_report.txt", "_trajectory.csv"):
        digest = hashlib.sha256((tmp_path / f"{demo}{suffix}").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[demo + suffix], demo + suffix
