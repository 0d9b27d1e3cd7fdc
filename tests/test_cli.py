"""End-to-end CLI behaviour: outputs, reproducibility, and exit codes."""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import dqwalk
from dqwalk import binomial_law, mu_shapira
from dqwalk.cli import ensemble_from_config, main, parse_n_list


def run_cli(*args, env=None, cwd=None):
    command = [sys.executable, "-m", "dqwalk.cli", *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, cwd=cwd)


def load_json(path):
    return json.loads(path.read_text())


class TestRunCommand:
    def test_fixed_hadamard_realization(self, tmp_path):
        out = tmp_path / "run.json"
        proc = run_cli(
            "run", "--ensemble", "fixed_hadamard", "--init", "1,0", "--n", "4",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        payload = load_json(out)
        mass = payload["result"]["mass"]
        assert len(mass) == 5
        assert sum(p for _, p in mass) == pytest.approx(1.0, abs=1e-12)

    def test_zero_steps(self, tmp_path):
        out = tmp_path / "run0.json"
        proc = run_cli("run", "--n", "0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        ((site, mass),) = load_json(out)["result"]["mass"]
        assert site == 0
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_malformed_ensemble_exits_2(self):
        proc = run_cli("run", "--ensemble", "bogus", "--n", "2")
        assert proc.returncode == 2
        assert "unknown ensemble" in proc.stderr

    def test_missing_n_exits_2(self):
        proc = run_cli("run", "--ensemble", "fixed_hadamard")
        assert proc.returncode == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["run", "--ensemble", "ribeiro_uniform", "--n", "8", "--seed", "42"]
        assert run_cli(*flags, "--out", str(out1)).returncode == 0
        assert run_cli(*flags, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rerun_from_embedded_config_reproduces_output(self, tmp_path):
        out1 = tmp_path / "a.json"
        run_cli("run", "--ensemble", "ribeiro_two_point", "--xi", "0.7", "--n", "6",
                "--seed", "9", "--out", str(out1))
        embedded = load_json(out1)["config"]
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(embedded))
        out2 = tmp_path / "b.json"
        proc = run_cli("run", "--config", str(config_file), "--out", str(out2))
        assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format_embeds_config(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = run_cli("run", "--ensemble", "fixed_hadamard", "--init", "1,0",
                       "--n", "2", "--format", "csv", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1].startswith("# digest: ")
        assert lines[2] == "k,probability"
        assert len(lines) == 6

    @pytest.mark.parametrize("command", ["run", "exact"])
    def test_case_i_written_out_is_recorded_as_case_i(self, command, tmp_path):
        # The record is read off the state, so the same state gets the same document.
        documents = []
        for init in ("0.7071067811865475,0.7071067811865475j", "caseI"):
            out = tmp_path / f"{init}.json"
            assert main([command, "--ensemble", "ribeiro_two_point", "--xi", "0.7854",
                         "--init", init, "--n", "6", "--out", str(out)]) == 0
            documents.append(out.read_bytes())
        assert documents[0] == documents[1]


class TestSeedPrecedence:
    def test_env_seed_used_when_flag_absent(self, tmp_path):
        env = dict(os.environ, DQW_SEED="123")
        out_env = tmp_path / "env.json"
        run_cli("run", "--n", "5", "--out", str(out_env), env=env)
        assert load_json(out_env)["config"]["seed"] == 123

    def test_flag_overrides_env(self, tmp_path):
        env = dict(os.environ, DQW_SEED="123")
        out = tmp_path / "flag.json"
        run_cli("run", "--n", "5", "--seed", "7", "--out", str(out), env=env)
        assert load_json(out)["config"]["seed"] == 7

    def test_bad_env_seed_exits_2(self):
        env = dict(os.environ, DQW_SEED="not-a-number")
        proc = run_cli("run", "--n", "2", env=env)
        assert proc.returncode == 2


class TestExactCommand:
    def test_two_point_matches_binomial(self, tmp_path):
        out = tmp_path / "exact.json"
        proc = run_cli("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854",
                       "--init", "caseI", "--n", "8", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = load_json(out)["result"]
        assert payload["max_abs_dev_from_binomial"] <= 1e-12

    def test_central_mass_at_n4(self, tmp_path):
        out = tmp_path / "exact4.json"
        run_cli("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854",
                "--init", "caseI", "--n", "4", "--out", str(out))
        mass = dict((k, p) for k, p in load_json(out)["result"]["mass"])
        assert mass[0] == pytest.approx(0.375, abs=1e-12)

    def test_continuous_ensemble_exits_4(self):
        proc = run_cli("exact", "--ensemble", "mackay_uniform", "--n", "4")
        assert proc.returncode == 4
        assert "continuous" in proc.stderr

    def test_two_point_n24_exits_0(self, tmp_path):
        out = tmp_path / "exact24.json"
        proc = run_cli("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854",
                       "--n", "24", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert load_json(out)["result"]["max_abs_dev_from_binomial"] <= 1e-12

    def test_two_point_n100_exits_0(self, tmp_path):
        out = tmp_path / "exact100.json"
        proc = run_cli("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854",
                       "--n", "100", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert load_json(out)["result"]["max_abs_dev_from_binomial"] <= 1e-12

    @pytest.mark.parametrize("n", [17, 52, 60, 70])
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, n):
        # LAPACK's QR under numpy's OpenBLAS gave other bits under two
        # threads at n = 52 and from n = 66 on; the channel runs in numpy
        # ufuncs only and needs no BLAS or LAPACK routine.
        documents = []
        for threads in ("1", "2"):
            out = tmp_path / f"exact-{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = run_cli("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854",
                           "--init", "caseI", "--n", str(n), "--out", str(out), env=env)
            assert proc.returncode == 0, proc.stderr
            documents.append(out.read_bytes())
        assert documents[0] == documents[1]


class TestAverageCommand:
    def test_average_reports_tv_and_audit(self, tmp_path):
        out = tmp_path / "avg.json"
        proc = run_cli("average", "--ensemble", "ribeiro_uniform", "--init", "caseI",
                       "--n", "6", "--trials", "4000", "--seed", "7",
                       "--audit-draws", "20000", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        result = load_json(out)["result"]
        assert result["tv_to_binomial"] <= 0.05
        assert result["moment_audit"]["eq_cross"] == "satisfied"

    def test_shapira_average_flags_cross_violation(self, tmp_path):
        out = tmp_path / "avg_shapira.json"
        proc = run_cli("average", "--ensemble", "shapira", "--sigma", "0.866",
                       "--n", "6", "--trials", "500", "--seed", "7",
                       "--audit-draws", "50000", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        audit = load_json(out)["result"]["moment_audit"]
        assert audit["eq_cross"] == "violated"

    def test_missing_trials_exits_2(self):
        proc = run_cli("average", "--ensemble", "ribeiro_uniform", "--n", "4")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "ensemble", [["ribeiro_uniform"], ["shapira", "--sigma", "0.5"]], ids=lambda e: e[0]
    )
    def test_seed_beyond_64_bits_exits_2(self, ensemble):
        proc = run_cli("average", "--ensemble", *ensemble, "--n", "4", "--trials", "10",
                       "--seed", str(2**70))
        assert proc.returncode == 2
        assert "2**64" in proc.stderr

    def test_zero_workers_exits_2(self):
        proc = run_cli("average", "--n", "4", "--trials", "10", "--workers", "0")
        assert proc.returncode == 2
        assert "workers" in proc.stderr

    @pytest.mark.parametrize("draws", [0, -5])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_audit_draws_exit_2_before_the_average(
        self, source, draws, tmp_path, monkeypatch, capsys
    ):
        import dqwalk.stats

        def forbidden(*args, **kwargs):
            raise AssertionError("a run started before the audit size was checked")

        monkeypatch.setattr(dqwalk.stats, "_mc_block", forbidden)
        argv = ["average", "--n", "200", "--trials", "4096"]
        if source == "flag":
            argv += ["--audit-draws", str(draws)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"audit_draws": draws}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"dqwalk: draws must be at least 1, got {draws}\n"

    @pytest.mark.parametrize(
        "ensemble", [["mackay_uniform"], ["shapira", "--sigma", "0.5"]], ids=lambda e: e[0]
    )
    def test_audit_bytes_do_not_depend_on_workers(self, ensemble, tmp_path):
        # At n=10 6000 trials are two runs, so two workers audit in the
        # parent while the pool runs them; one worker audits after them.
        common = ("--ensemble", *ensemble, "--seed", "11", "--out")
        audits = []
        for workers in ("1", "2"):
            out = tmp_path / f"average-w{workers}.json"
            proc = run_cli("average", *common, str(out), "--init", "caseII", "--n", "10",
                           "--trials", "6000", "--workers", workers, "--audit-draws", "5000")
            assert proc.returncode == 0, proc.stderr
            audits.append(load_json(out)["result"]["moment_audit"])
        out = tmp_path / "moments.json"
        proc = run_cli("moments", *common, str(out), "--draws", "5000")
        assert proc.returncode == 0, proc.stderr
        audits.append(load_json(out)["result"])
        texts = [json.dumps(audit, sort_keys=True, indent=2) for audit in audits]
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exits_2(self, sigma):
        proc = run_cli("average", "--ensemble", "shapira", "--sigma", sigma,
                       "--n", "4", "--trials", "10")
        assert proc.returncode == 2
        assert "sigma must be positive and finite" in proc.stderr
        assert "Warning" not in proc.stderr


class TestTooLargeForMemory:
    # Each request is larger than the 2^47-byte user address space of a
    # 64-bit process, so its allocation fails at once and touches no memory.
    @pytest.mark.parametrize(
        "args",
        [
            ("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854", "--n", "10000000"),
            ("average", "--n", str(10**15), "--trials", "1"),
            ("run", "--n", str(10**15)),
        ],
        ids=["exact", "average", "run"],
    )
    def test_exits_2(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("dqwalk: Unable to allocate"), proc.stderr


class TestMomentsCommand:
    def test_shapira_estimate_matches_closed_form(self, tmp_path):
        out = tmp_path / "moments.json"
        proc = run_cli("moments", "--ensemble", "shapira", "--sigma", "0.866",
                       "--draws", "200000", "--seed", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        result = load_json(out)["result"]
        estimate = complex(*result["estimates"]["a_conj_c"])
        stderr = result["stderrs"]["a_conj_c"]
        assert abs(estimate - mu_shapira(0.866)) <= 4 * stderr
        assert result["eq_cross"] == "violated"
        assert result["declared_a_conj_c"][0] == pytest.approx(mu_shapira(0.866))

    def test_csv_not_supported(self):
        proc = run_cli("moments", "--ensemble", "ribeiro_uniform", "--draws", "100",
                       "--format", "csv")
        assert proc.returncode == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exits_2(self, sigma):
        proc = run_cli("moments", "--ensemble", "shapira", "--sigma", sigma, "--draws", "100")
        assert proc.returncode == 2
        assert "sigma must be positive and finite" in proc.stderr
        assert "Warning" not in proc.stderr


class TestCoeffsCommand:
    def test_reconstruction_residual_reported(self, tmp_path):
        out = tmp_path / "coeffs.json"
        proc = run_cli("coeffs", "--n", "4", "--seed", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        result = load_json(out)["result"]
        assert result["max_reconstruction_residual"] <= 1e-10
        assert [k for k, _ in result["sites"]] == [-4, -2, 0, 2, 4]


#: `variance` documents whose rows are sums over many sites: the one-coin
#: walk's exact rows and a Monte Carlo scan.
VARIANCE_DOCUMENTS = {
    "hadamard": ("variance", "--walker", "hadamard", "--n", "1,5,20,64,200,500,999"),
    "averaged": ("variance", "--walker", "averaged", "--ensemble", "mackay_uniform",
                 "--init", "caseII", "--n", "1,10,40", "--trials", "5121", "--seed", "7"),
}


class TestVarianceCommand:
    def test_classical_column_equals_n(self, tmp_path):
        out = tmp_path / "var.csv"
        proc = run_cli("variance", "--walker", "classical", "--n", "10..100:10",
                       "--format", "csv", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert all(float(v) == float(n) for n, v in rows)

    def test_averaged_walker_requires_trials(self):
        proc = run_cli("variance", "--walker", "averaged", "--n", "4,8")
        assert proc.returncode == 2

    def test_zero_workers_exits_2(self):
        proc = run_cli("variance", "--walker", "averaged", "--n", "4", "--trials", "10",
                       "--workers", "0")
        assert proc.returncode == 2
        assert "workers" in proc.stderr

    def test_unknown_walker_exits_2(self):
        proc = run_cli("variance", "--walker", "quantumish", "--n", "4")
        assert proc.returncode == 2

    def test_missing_n_exits_2(self):
        proc = run_cli("variance", "--walker", "classical")
        assert proc.returncode == 2
        assert "n is required" in proc.stderr

    def test_rerun_from_embedded_config(self, tmp_path):
        out1 = tmp_path / "var1.json"
        run_cli("variance", "--walker", "averaged", "--ensemble", "ribeiro_two_point",
                "--xi", "0.5", "--n", "4,8", "--trials", "300", "--seed", "3",
                "--out", str(out1))
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(load_json(out1)["config"]))
        out2 = tmp_path / "var2.json"
        proc = run_cli("variance", "--config", str(config_file), "--out", str(out2))
        assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    @pytest.mark.parametrize("args", VARIANCE_DOCUMENTS.values(), ids=VARIANCE_DOCUMENTS.keys())
    def test_bytes_do_not_depend_on_the_blas_kernel(self, args):
        # A BLAS routine's rounding depends on the CPU kernel OpenBLAS picks,
        # which OPENBLAS_CORETYPE forces; the package calls none.  Haswell's
        # kernel needs AVX2 and FMA3.
        features = numpy_umath().__cpu_features__
        coretypes = ["", "Prescott"]
        if features.get("AVX2") and features.get("FMA3"):
            coretypes.append("Haswell")
        documents = {}
        for coretype in coretypes:
            proc = run_cli(*args, env=dict(os.environ, OPENBLAS_CORETYPE=coretype))
            assert proc.returncode == 0, proc.stderr
            documents[coretype] = proc.stdout
        assert [c for c, doc in documents.items() if doc != documents[""]] == []


#: A valid config for each command, and the keys it reads from a config file.
VALID_CONFIGS = {
    "run": ({"n": 3}, ("n", "seed", "params", "ensemble", "init")),
    "average": (
        {"n": 3, "trials": 10, "audit_draws": 100},
        ("n", "seed", "params", "trials", "audit_draws"),
    ),
    "exact": ({"ensemble": "fixed_hadamard", "n": 3}, ("n", "params", "init")),
    "moments": ({"draws": 100}, ("seed", "params", "draws")),
    "coeffs": ({"n": 3}, ("n", "seed", "params", "init")),
    "variance": (
        {"walker": "averaged", "n": [2, 4], "trials": 10},
        ("n", "seed", "params", "trials", "init"),
    ),
}

#: A value of the wrong JSON type for each key.
MALFORMED = {
    "n": [[2], 4],
    "seed": [1],
    "params": [1],
    "ensemble": ["shapira"],
    "init": [[[1], 0], [0, 0]],
    "trials": [10],
    "audit_draws": [100],
    "draws": [100],
}


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command, (_, keys) in VALID_CONFIGS.items() for key in keys],
    )
    def test_wrong_type_exits_2(self, command, key, tmp_path, capsys):
        config = dict(VALID_CONFIGS[command][0])
        config[key] = MALFORMED[key]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dqwalk: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [2.7, 1.0, True], ids=["fraction", "integral-float", "bool"])
    @pytest.mark.parametrize(
        "command, key",
        [
            (command, key)
            for command, (_, keys) in VALID_CONFIGS.items()
            for key in keys
            if key in ("n", "seed", "trials", "audit_draws", "draws")
        ],
    )
    def test_non_integer_number_exits_2(self, command, key, value, tmp_path, capsys):
        # Integers are not truncated from other JSON numbers or booleans.
        config = dict(VALID_CONFIGS[command][0])
        config[key] = [value] if command == "variance" and key == "n" else value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"dqwalk: malformed {key}: {value!r}\n"

    def test_non_integer_variance_n_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"walker": "classical", "n": 2.7}))
        assert main(["variance", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "dqwalk: malformed n: 2.7\n"

    @pytest.mark.parametrize(
        "config",
        [{"ensemble": "shapira", "params": {"sigma": [0.3]}}, {"n": float("inf")}],
        ids=["param-value", "infinite-n"],
    )
    def test_unconvertible_value_exits_2(self, config, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 3, **config}))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("dqwalk: ")

    @pytest.mark.parametrize(
        "init, message",
        [
            ("caseIII", "fixed initial state must be 'alpha,beta', got 'caseIII'"),
            ("1,x", "cannot parse initial state '1,x'"),
            (5, "cannot interpret initial-state spec 5"),
            ([None, 1], "malformed init: [None, 1]"),
            ([True, False], "malformed init: [True, False]"),
            ([[1, 0], [False, 0]], "malformed init: [[1, 0], [False, 0]]"),
        ],
        ids=repr,
    )
    def test_init_error_messages(self, init, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 3, "init": init}))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"dqwalk: {message}\n"

    @pytest.mark.parametrize("ensemble, key", [("ribeiro_two_point", "xi"), ("shapira", "sigma")])
    def test_boolean_parameter_exits_2(self, ensemble, key, tmp_path, capsys):
        # JSON's true would otherwise run as 1.0 and be recorded as 1.0.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 3, "ensemble": ensemble, "params": {key: True}}))
        assert main(["exact", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"dqwalk: malformed {key}: True\n"
        with pytest.raises(ValueError, match=f"malformed {key}: False"):
            ensemble_from_config(ensemble, {key: False})

    @pytest.mark.parametrize("init", [[[0.6, 0], [0, 0.8]], ["0.6", "0.8j"]], ids=repr)
    def test_init_pairs_match_the_flag(self, init, tmp_path):
        path, by_file, by_flag = tmp_path / "config.json", tmp_path / "a", tmp_path / "b"
        path.write_text(json.dumps({"n": 3, "init": init}))
        assert main(["run", "--config", str(path), "--out", str(by_file)]) == 0
        assert main(["run", "--n", "3", "--init", "0.6,0.8j", "--out", str(by_flag)]) == 0
        assert by_file.read_bytes() == by_flag.read_bytes()

    def test_workers_never_recorded(self, tmp_path):
        out = tmp_path / "avg.json"
        assert main(["average", "--n", "3", "--trials", "10", "--audit-draws", "100",
                     "--workers", "2", "--out", str(out)]) == 0
        assert set(load_json(out)["config"]) == {
            "command", "ensemble", "params", "init", "n", "trials", "seed", "audit_draws",
        }


#: Runs `dqwalk.cli.main` on its arguments and prints whether `numpy.random`
#: was imported.  The import hook is inherited by forked pool workers, which
#: report their own imports on stderr.
NUMPY_RANDOM_PROBE = """
import os, sys
import numpy
if "numpy.random" in sys.modules:
    print("loaded by numpy")
    raise SystemExit(0)

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy.random":
            os.write(2, b"numpy.random imported in %d\\n" % os.getpid())
        return None

sys.meta_path.insert(0, Probe())
from dqwalk.cli import main
code = main(sys.argv[1:])
print("loaded" if "numpy.random" in sys.modules else "not loaded")
raise SystemExit(code)
"""


class TestNumpyRandomImport:
    """Catalog runs whose draws are all uniforms never import `numpy.random`."""

    def probe(self, tmp_path, *args):
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_RANDOM_PROBE, *args, "--out", str(tmp_path / "doc")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "loaded by numpy":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        return proc

    @pytest.mark.parametrize(
        "args",
        [
            ("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854", "--n", "12"),
            ("average", "--ensemble", "mackay_uniform", "--init", "caseII", "--n", "10",
             "--trials", "6000", "--workers", "2", "--audit-draws", "5000"),
            ("moments", "--ensemble", "ribeiro_uniform", "--draws", "5000"),
        ],
        ids=["exact", "average-w2", "moments"],
    )
    def test_uniform_draws_leave_numpy_random_out(self, tmp_path, args):
        proc = self.probe(tmp_path, *args)
        assert proc.stdout.strip() == "not loaded"
        assert "numpy.random imported" not in proc.stderr

    def test_shapira_loads_numpy_random(self, tmp_path):
        proc = self.probe(
            tmp_path, "average", "--ensemble", "shapira", "--sigma", "0.3", "--n", "6",
            "--trials", "200", "--audit-draws", "200",
        )
        assert proc.stdout.strip() == "loaded"


def numpy_umath():
    """numpy's ufunc module, which lists the CPU features and dispatch targets."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath


def simd_settings() -> list[str]:
    """`NPY_DISABLE_CPU_FEATURES` values, one per dispatch target this CPU has.

    Each disables that target and every later one it has, so numpy falls
    back to the loops of the target before it.
    """
    umath = numpy_umath()
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return [" ".join(targets[k:]) for k in range(len(targets))]


class TestSimdTargets:
    """Real-coin documents have the same bytes on every SIMD target numpy can take.

    Complex-coin documents do not: numpy's complex multiply rounds
    differently on some targets, which README states.  On each target the
    kernel's two loop orders give the same bytes.
    """

    @pytest.mark.parametrize(
        "args",
        [
            ("average", "--ensemble", "ribeiro_uniform", "--init", "caseII", "--n", "10",
             "--trials", "3000", "--seed", "7", "--audit-draws", "5000"),
            ("average", "--ensemble", "ribeiro_uniform", "--init", "caseI", "--n", "160",
             "--trials", "300", "--seed", "7", "--audit-draws", "5000"),
            ("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854", "--init", "0.6,0.8j",
             "--n", "40"),
            VARIANCE_DOCUMENTS["hadamard"],
        ],
        ids=["average", "average-diagonals", "exact", "variance"],
    )
    def test_real_coin_documents_do_not_depend_on_the_target(self, args):
        settings = simd_settings()
        if not settings:
            pytest.skip("numpy has no dispatch target to disable on this CPU")
        documents = {}
        for setting in ["", *settings]:
            proc = run_cli(*args, env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=setting))
            assert proc.returncode == 0, proc.stderr
            documents[setting] = proc.stdout
        assert [s for s, doc in documents.items() if doc != documents[""]] == []

    def test_both_loop_orders_give_the_same_bytes_on_every_target(self):
        # Complex-coin bytes are pinned per target, so on each target the
        # diagonal loop of an origin start must give the bytes of the
        # site-major loop, which an amplitude start over one site takes.
        program = (
            "import numpy as np\n"
            "from conftest import _draw_haar\n"
            "from dqwalk.engine import _evolve_block\n"
            "rng = np.random.default_rng(200)\n"
            "abcd = _draw_haar(rng, 100 * 200).reshape(100, 200, 4)\n"
            "initial = np.ascontiguousarray(_draw_haar(rng, 100)[:, [0, 2]])\n"
            "diagonals = _evolve_block(abcd, initial)\n"
            "site_major = _evolve_block(abcd, initial[:, np.newaxis, :])\n"
            "print(diagonals.tobytes() == site_major.tobytes())\n"
        )
        tests = Path(__file__).resolve().parent
        src = str(Path(dqwalk.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [str(tests), src, os.environ.get("PYTHONPATH")]))
        for setting in ["", *simd_settings()]:
            env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=setting)
            proc = subprocess.run(
                [sys.executable, "-c", program], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "True", setting


class TestParsing:
    def test_parse_n_list_forms(self):
        assert parse_n_list("12") == [12]
        assert parse_n_list("10,20,50") == [10, 20, 50]
        assert parse_n_list("10..14") == [10, 11, 12, 13, 14]
        assert parse_n_list("10..50:20") == [10, 30, 50]

    def test_parse_n_list_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            parse_n_list("50..10")

    def test_drift_maps_to_exit_3(self, monkeypatch):
        import dqwalk.cli as cli_module
        from dqwalk import NumericalDriftError

        def boom(*args, **kwargs):
            raise NumericalDriftError("synthetic drift")

        monkeypatch.setattr(cli_module, "run_realization", boom)
        assert main(["run", "--n", "4"]) == 3

    def test_binomial_reference_used_by_exact(self):
        # sanity anchor for the values asserted above
        assert binomial_law(4, 0) == 0.375
        assert binomial_law(8, 0) == math.comb(8, 4) / 256
