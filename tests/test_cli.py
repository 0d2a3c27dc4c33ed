"""The batch driver: configs, reports, determinism, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cfmoments import cli
from cfmoments import mc_oracle as mc


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "cfmoments.cli", *args],
        capture_output=True, text=True,
    )
    return proc


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestMomentTask:
    def test_cauchy_half_moment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"family": "stable", "p": 1, "t": 1, "d": 1},
            "alpha": 0.5,
        })
        proc = run_cli(["moment", "--config", cfg])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        rep = json.loads(proc.stdout)
        row = rep["rows"][0]
        assert row["value"] == pytest.approx(math.sqrt(2.0), rel=1e-8)
        assert row["formula"] == "M13" and row["k"] == 1
        assert "normalizing_constant" in row and "power_sum" in row

    def test_report_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"family": "gaussian", "t": 1, "d": 2},
            "alpha": 1.3,
        })
        a = run_cli(["moment", "--config", cfg, "--seed", "7"])
        b = run_cli(["moment", "--config", cfg, "--seed", "7"])
        assert a.stdout == b.stdout
        assert a.returncode == 0

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"family": "gaussian", "t": 1, "d": 1},
            "alpha": 1.0,
        })
        proc = run_cli(["moment", "--config", cfg, "--format", "csv"])
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("task,config_hash,version")

    def test_out_file(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"family": "linnik", "p": 1.0, "beta": 1.0, "d": 1},
            "alpha": 0.5,
        })
        out = tmp_path / "report.json"
        proc = run_cli(["moment", "--config", cfg, "--out", str(out)])
        assert proc.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["task"] == "moment"

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"family": "stable", "p": 1, "t": 1, "d": 1},
            "alpha": 1.5,
        })
        proc = run_cli(["moment", "--config", cfg])
        assert proc.returncode == 3
        err = json.loads(proc.stdout)
        assert err["error"]["type"] == "computation"

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"measure": {"family": "nope"}, "alpha": 0.5})
        proc = run_cli(["moment", "--config", cfg])
        assert proc.returncode == 2
        err = json.loads(proc.stdout)
        assert err["error"]["type"] == "config"

    def test_missing_config(self):
        proc = run_cli(["moment"])
        assert proc.returncode == 2

    def test_tol_flag_overrides_quadrature(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"family": "stable", "p": 1, "t": 1, "d": 1},
            "alpha": 0.5,
        })
        loose = run_cli(["moment", "--config", cfg, "--tol", "1e-3"])
        row = json.loads(loose.stdout)["rows"][0]
        assert loose.returncode == 0
        assert row["value"] == pytest.approx(math.sqrt(2.0), rel=1e-3)

    def test_even_order_route(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"family": "gaussian", "t": 1, "d": 1},
            "alpha": 2,
        })
        proc = run_cli(["moment", "--config", cfg])
        rep = json.loads(proc.stdout)
        assert rep["rows"][0]["formula"] == "even-series"
        assert rep["rows"][0]["value"] == pytest.approx(2.0, rel=1e-12)


class TestMetricTask:
    def test_composite_components(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kind": "F",
            "a": {"family": "gaussian", "t": 1, "d": 1},
            "b": {"family": "gaussian", "t": 2, "d": 1},
            "alpha": 0.5, "beta": 0.5, "k": 1,
        })
        proc = run_cli(["metric", "--config", cfg])
        row = json.loads(proc.stdout)["rows"][0]
        assert row["value"] == pytest.approx(
            row["sup_component"] + row["integral_component"], rel=1e-12
        )

    def test_rho_task(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kind": "rho",
            "a": {"family": "gaussian", "t": 1, "d": 1},
            "b": {"family": "point_mass", "point": [0.0]},
            "alpha": 0.5,
        })
        proc = run_cli(["metric", "--config", cfg])
        row = json.loads(proc.stdout)["rows"][0]
        from cfmoments.specfun import gamma

        assert row["value"] == pytest.approx(2.0 * gamma(0.75) / 0.5, rel=1e-6)


class TestMembershipTask:
    def test_classifications(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"family": "gaussian", "t": 1, "d": 1},
            "alpha": 0.5, "k": 1,
        })
        row = json.loads(run_cli(["membership", "--config", cfg]).stdout)["rows"][0]
        assert row["classification"] == "finite"
        assert row["reason"] is None
        cfg = write_config(tmp_path, {
            "measure": {"family": "stable", "p": 1, "t": 1, "d": 1},
            "alpha": 1.5, "k": 2,
        }, "c2.json")
        row = json.loads(run_cli(["membership", "--config", cfg]).stdout)["rows"][0]
        assert row["classification"] == "divergence-suspected"
        assert "inconsisten" in row["reason"]


class TestHeatTask:
    def test_moment_check(self, tmp_path):
        cfg = write_config(tmp_path, {
            "check": "moment",
            "initial": {"family": "point_mass", "point": [0.0]},
            "p": 1.5, "t": [0.25, 1.0], "alpha": 0.7,
        })
        rows = json.loads(run_cli(["heat", "--config", cfg]).stdout)["rows"]
        assert len(rows) == 2
        from cfmoments.closed_forms import stable_moment

        for row in rows:
            expected = row["t"] ** (0.7 / 1.5) * stable_moment(1.5, 0.7, 1)
            assert row["moment"] == pytest.approx(expected, rel=1e-6)


class TestHeatSmallTime:
    def test_small_time_rows(self, tmp_path):
        cfg = write_config(tmp_path, {
            "check": "small-time",
            "initial": {"family": "point_mass", "point": [0.0]},
            "p": 2.0, "t": [0.02, 0.01], "alpha": 0.5,
        })
        rows = json.loads(run_cli(["heat", "--config", cfg]).stdout)["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["distance"] == pytest.approx(row["bound"], rel=1e-5)


class TestConvolveTask:
    def test_bound_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "a": {"family": "gaussian", "t": 1, "d": 1},
            "b": {"family": "stable", "p": 1, "t": 1, "d": 1},
            "alpha": 2.0, "beta": 0.5,
        })
        row = json.loads(run_cli(["convolve", "--config", cfg]).stdout)["rows"][0]
        assert row["gamma"] == 0.5
        assert row["ratio"] > 0.0


class TestSampleTask:
    def test_round_trip_identical_sampleset(self, tmp_path):
        out_csv = tmp_path / "draws.csv"
        cfg = write_config(tmp_path, {
            "family": "stable", "p": 1.5, "n": 200, "seed": 9,
            "alpha": 0.5, "out_csv": str(out_csv),
        })
        proc = run_cli(["sample", "--config", cfg, "--seed", "9"])
        assert proc.returncode == 0
        direct = mc.sample_stable_1d(1.5, 200, 9)
        back = mc.load_samples_csv(out_csv)
        assert np.array_equal(back, direct.points)

    def test_sample_report_determinism(self, tmp_path):
        out_csv = tmp_path / "d.csv"
        cfg = write_config(tmp_path, {
            "family": "gaussian", "t": 1.0, "d": 2, "n": 100, "seed": 3,
            "out_csv": str(out_csv),
        })
        a = run_cli(["sample", "--config", cfg])
        csv_a = out_csv.read_bytes()
        b = run_cli(["sample", "--config", cfg])
        assert a.stdout == b.stdout
        assert out_csv.read_bytes() == csv_a


class TestEndToEnd:
    def test_sample_to_ingest_to_moment(self, tmp_path):
        # draws written to CSV, re-ingested as an empirical measure, and the
        # quadrature moment checked against the exact atom sum
        out_csv = tmp_path / "plane.csv"
        cfg = write_config(tmp_path, {
            "family": "gaussian", "t": 1.0, "d": 2, "n": 100, "seed": 31,
            "out_csv": str(out_csv),
        }, "s.json")
        assert run_cli(["sample", "--config", cfg]).returncode == 0
        mom_cfg = write_config(tmp_path, {
            "measure": {"family": "empirical", "samples": str(out_csv)},
            "alpha": 0.5, "k": 1,
        }, "m.json")
        proc = run_cli(["moment", "--config", mom_cfg])
        assert proc.returncode == 0, proc.stdout
        row = json.loads(proc.stdout)["rows"][0]
        pts = mc.load_samples_csv(out_csv)
        brute = float(np.mean(np.sqrt((pts**2).sum(axis=1)) ** 0.5))
        assert row["value"] == pytest.approx(brute, rel=1e-2)

    def test_heat_decay_task(self, tmp_path):
        cfg = write_config(tmp_path, {
            "check": "decay",
            "initial": {"family": "stable", "p": 0.55, "t": 1, "d": 1},
            "b": {"family": "point_mass", "point": [0.0]},
            "p": 2.0, "alpha": 0.5, "sigma": 0, "t": [4.0, 8.0],
        })
        proc = run_cli(["heat", "--config", cfg])
        assert proc.returncode == 0, proc.stdout
        row = json.loads(proc.stdout)["rows"][0]
        assert all(m <= b for m, b in zip(row["measured_sup"], row["bounds"]))


class TestVerifyTask:
    def test_all_pass(self):
        proc = run_cli(["verify"])
        assert proc.returncode == 0, proc.stdout
        rows = json.loads(proc.stdout)["rows"]
        assert all(r["status"] == "pass" for r in rows)
        assert len(rows) >= 12


class TestMeasureBuilder:
    def test_product_and_mixture(self):
        phi = cli.build_measure({
            "family": "product",
            "factors": [
                {"family": "gaussian", "t": 1, "d": 1},
                {"family": "point_mass", "point": [1.0]},
            ],
        })
        assert phi.dim == 1 and not phi.is_real
        assert phi.label == "(gaussian(t=1, d=1))*(point_mass([1.]))"
        mix = cli.build_measure({
            "family": "mixture",
            "components": [
                {"family": "gaussian", "t": 1, "d": 1},
                {"family": "stable", "p": 1, "t": 1, "d": 1},
            ],
            "weights": [0.5, 0.5],
        })
        assert mix.is_radial

    def test_empirical_from_csv(self, tmp_path):
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, -1.0]])
        path = tmp_path / "s.csv"
        mc.save_samples_csv(path, pts)
        phi = cli.build_measure({"family": "empirical", "samples": str(path)})
        assert phi.dim == 2 and phi.atoms.size == 3

    def test_schoenberg_family(self):
        phi = cli.build_measure({
            "family": "schoenberg", "p": 2.0, "d": 1,
            "mixing": {"atoms": [1.0, 4.0], "weights": [0.5, 0.5]},
        })
        assert phi.label == "schoenberg(p=2, atoms=2, d=1)"
        g = cli.build_measure({"family": "gaussian", "t": 0.5, "d": 2})
        assert g.label == "gaussian(t=0.5, d=2)" and g.derivative is not None
        import math

        assert complex(phi.evaluate(1.0)).real == pytest.approx(
            (math.exp(-1) + math.exp(-4)) / 2, rel=1e-12
        )

    def test_pathological(self):
        phi = cli.build_measure({"family": "pathological", "alpha": 1.0, "terms": 4})
        assert phi.atoms.size == 4


class TestExitCodes:
    def test_missing_alpha_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"measure": {"family": "gaussian", "t": 1, "d": 1}})
        proc = run_cli(["moment", "--config", cfg])
        assert proc.returncode == 2
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "config" and "alpha" in err["message"]

    def test_unknown_quadrature_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"family": "gaussian", "t": 1, "d": 1},
            "alpha": 0.5,
            "quadrature": {"rel_tol": 1e-8, "bogus": 3},
        })
        proc = run_cli(["moment", "--config", cfg])
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "config"

    @pytest.mark.parametrize("bad", [{"alpha": "half"}, {"alpha": 0.5, "k": [1]},
                                     {"alpha": 0.5, "quadrature": {"rel_tol": "x"}},
                                     {"alpha": 0.5, "quadrature": {"max_panels": 1e3}},
                                     {"alpha": 2, "formula": "even-limit"},
                                     {"alpha": 0.5, "formula": "bogus"},
                                     {"alpha": 0.5, "k": 2, "formula": "bogus"},
                                     {"alpha": 0.5, "formula": "even-series"}])
    def test_malformed_fields_are_config_errors(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, {"measure": {"family": "gaussian", "t": 1, "d": 1}, **bad})
        assert cli.main(["moment", "--config", cfg]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"

    def test_internal_key_error_is_not_a_config_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal lookup")

        monkeypatch.setattr(cli, "absolute_moment", broken)
        cfg = write_config(tmp_path, {
            "measure": {"family": "gaussian", "t": 1, "d": 1},
            "alpha": 0.5,
        })
        assert cli.main(["moment", "--config", cfg]) == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] != "config" and "KeyError" in err["message"]

    def test_unwritable_outputs_are_config_errors(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        cfg = write_config(tmp_path, {"family": "gaussian", "n": 10,
                                      "out_csv": str(missing / "s.csv")})
        assert cli.main(["sample", "--config", cfg]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"
        cfg = write_config(tmp_path, {"family": "gaussian", "n": 10}, name="ok.json")
        assert cli.main(["sample", "--config", cfg, "--out", str(missing / "r.json")]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"


class TestIntegerFields:
    # one config per integer field; the field's value is put in by the test
    CONFIGS = {
        "k": ("moment", {"measure": {"family": "gaussian", "t": 1, "d": 1}, "alpha": 0.5}),
        "d": ("moment", {"measure": {"family": "gaussian", "t": 1}, "alpha": 0.5}),
        "terms": ("moment", {"measure": {"family": "pathological", "alpha": 1.0},
                             "alpha": 0.5}),
        "n": ("sample", {"family": "gaussian"}),
        "seed": ("sample", {"family": "gaussian", "n": 10}),
        "sigma": ("heat", {"check": "decay", "p": 2.0, "t": [4.0],
                           "initial": {"family": "point_mass", "point": [0.0]},
                           "b": {"family": "point_mass", "point": [1.0]}}),
    }

    def _run(self, tmp_path, capsys, key, value):
        task, cfg = self.CONFIGS[key]
        cfg = json.loads(json.dumps(cfg))
        (cfg["measure"] if key in ("d", "terms") else cfg)[key] = value
        code = cli.main([task, "--config", write_config(tmp_path, cfg)])
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("value", [1.7, True, "2", float("inf")])
    @pytest.mark.parametrize("key", ["k", "d", "terms", "n", "seed", "sigma"])
    def test_non_integers_are_config_errors(self, tmp_path, capsys, key, value):
        code, out = self._run(tmp_path, capsys, key, value)
        assert code == 2
        assert out["error"]["type"] == "config" and repr(key) in out["error"]["message"]

    def test_integral_floats_are_read_as_integers(self, tmp_path, capsys):
        code, out = self._run(tmp_path, capsys, "k", 3.0)
        assert code == 0 and out["rows"][0]["k"] == 3
        code, out = self._run(tmp_path, capsys, "n", 10.0)
        assert code == 0 and out["rows"][0]["n"] == 10


class TestFloatFields:
    # one config per kind of float field; "@" marks where the test puts
    # the field's value
    GAUSS = {"family": "gaussian", "t": 1, "d": 1}
    CONFIGS = {
        "alpha": ("moment", {"measure": GAUSS, "alpha": "@"}),
        "t": ("moment", {"measure": {"family": "gaussian", "t": "@", "d": 1}, "alpha": 0.5}),
        "p": ("moment", {"measure": {"family": "stable", "p": "@", "t": 1}, "alpha": 0.5}),
        "beta": ("metric", {"kind": "d_beta", "a": GAUSS, "b": GAUSS, "beta": "@"}),
        "point": ("moment", {"measure": {"family": "point_mass", "point": ["@"]},
                             "alpha": 0.5}),
        "weights": ("moment", {"measure": {"family": "mixture", "components": [GAUSS, GAUSS],
                                           "weights": [0.5, "@"]}, "alpha": 0.5}),
        "heat-t": ("heat", {"check": "moment", "p": 2.0, "t": ["@"],
                            "initial": {"family": "point_mass", "point": [1.0]}}),
        "rel_tol": ("moment", {"measure": GAUSS, "alpha": 0.5, "quadrature": {"rel_tol": "@"}}),
    }

    @staticmethod
    def _put(obj, value):
        if obj == "@":
            return value
        if isinstance(obj, dict):
            return {k: TestFloatFields._put(v, value) for k, v in obj.items()}
        if isinstance(obj, list):
            return [TestFloatFields._put(v, value) for v in obj]
        return obj

    @pytest.mark.parametrize("value", [True, "0.5", float("nan"), float("inf"),
                                       pytest.param(10**400, id="int-1e400")])
    @pytest.mark.parametrize("field", list(CONFIGS))
    def test_non_numbers_are_config_errors(self, tmp_path, capsys, field, value):
        task, cfg = self.CONFIGS[field]
        path = write_config(tmp_path, self._put(cfg, value))
        assert cli.main([task, "--config", path]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "config"
        assert repr(field.removeprefix("heat-")) in err["message"]

    def test_integers_are_read_as_floats(self, tmp_path, capsys):
        path = write_config(tmp_path, self._put(self.CONFIGS["point"][1], 1))
        assert cli.main(["moment", "--config", path]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["value"] == pytest.approx(1.0, rel=1e-8)
