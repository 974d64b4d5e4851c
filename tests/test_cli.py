"""Scenario runner: config parsing, outputs, exit codes, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from pdclab.cli import ComparisonRow, main, parse_config
from pdclab.dynamics import SystemParams
from pdclab.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"

GOOD = """
# comment lines and blank lines are ignored
name = demo
tasks = occupation, gap

params.g = 0.1
params.lambda_a = 0.01
params.gamma_a = 10.0
params.gamma_b = 1.0   # trailing comment

sweep.parameter = g
sweep.values = 0.02, 0.05, 0.1
truncation.signal_dim = 20
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def params_text(**overrides) -> str:
    values = {"g": 0.1, "lambda_a": 1.0, "gamma_a": 10.0, "gamma_b": 1.0, **overrides}
    return "".join(f"params.{key} = {value}\n" for key, value in values.items())


def test_parse_config_round_trip(tmp_path):
    sc = parse_config(write(tmp_path, GOOD))
    assert sc.name == "demo"
    assert sc.tasks == ["occupation", "gap"]
    assert sc.params.g == 0.1
    assert sc.params.gamma_b == 1.0
    assert sc.sweep == ("g", (0.02, 0.05, 0.1))
    assert sc.signal_dim == 20


def test_parse_config_rejects_removed_pump_dim(tmp_path):
    # no task builds the two-mode model, so the pump truncation is not a key
    path = write(tmp_path, GOOD + "truncation.pump_dim = 15\n")
    with pytest.raises(ConfigError, match="unknown config keys: truncation.pump_dim"):
        parse_config(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tolerances.floor", "1e-12"),
        ("tolerances.floor", "0"),
        ("tolerances.floor", "-1e-12"),
        ("tolerances.floor", "nan"),
        ("tolerances.floor", "inf"),
        ("tolerances.floor", "tiny"),
        ("tolerances.rel", "1e-6"),
        ("tolerances.rel", "0.0"),
        ("tolerances.rel", "-1e-6"),
        ("tolerances.rel", "nan"),
        ("tolerances.rel", "inf"),
    ],
)
def test_parse_config_rejects_removed_tolerances(tmp_path, key, value):
    # every comparison fixes its own tolerance: the config sets none, at any value
    path = write(tmp_path, GOOD + f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
        parse_config(path)


@pytest.mark.parametrize("key", ("params.omega1", "params.omega2"))
def test_parse_config_rejects_removed_frequencies(tmp_path, key):
    # the rotating frame assumes resonance; no formula reads the frequencies
    path = write(tmp_path, GOOD + f"{key} = 2.0\n")
    with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
        parse_config(path)


def test_parse_config_unknown_key_strict(tmp_path):
    path = write(tmp_path, GOOD + "params.typo = 1\n")
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(path)


def test_parse_config_missing_required(tmp_path):
    path = write(tmp_path, "tasks = occupation\nparams.g = 0.1\n")
    with pytest.raises(ConfigError, match="params.lambda_a"):
        parse_config(path)


def test_parse_config_empty_tasks(tmp_path):
    path = write(
        tmp_path,
        "params.g = 0.1\nparams.lambda_a = 1\nparams.gamma_a = 1\nparams.gamma_b = 1\n",
    )
    with pytest.raises(ConfigError, match="empty task list"):
        parse_config(path)


def test_parse_config_sweep_errors(tmp_path):
    base = "tasks = occupation\nparams.g = 0.1\nparams.lambda_a = 1\nparams.gamma_a = 1\nparams.gamma_b = 1\n"
    with pytest.raises(ConfigError, match="both"):
        parse_config(write(tmp_path, base + "sweep.parameter = g\n", "a.cfg"))
    with pytest.raises(ConfigError, match="sweep.parameter"):
        parse_config(
            write(tmp_path, base + "sweep.parameter = x\nsweep.values = 1\n", "b.cfg")
        )
    with pytest.raises(ConfigError, match="numbers"):
        parse_config(
            write(
                tmp_path,
                base + "sweep.parameter = g\nsweep.values = one, two\n",
                "c.cfg",
            )
        )
    with pytest.raises(ConfigError, match="sweep.values is empty"):
        parse_config(write(tmp_path, base + "sweep.parameter = g\nsweep.values =\n", "d.cfg"))
    for values in ("0.1, nan", "inf", "0.1 -inf"):
        with pytest.raises(ConfigError, match="sweep.values must be finite"):
            parse_config(
                write(tmp_path, base + f"sweep.parameter = g\nsweep.values = {values}\n", "e.cfg")
            )


def test_parse_config_duplicate_key(tmp_path):
    path = write(tmp_path, GOOD + "params.g = 0.2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_parse_config_rejects_bad_name(tmp_path):
    path = write(tmp_path, GOOD.replace("name = demo", "name = de mo/.."))
    with pytest.raises(ConfigError, match="name"):
        parse_config(path)


def test_parse_config_invalid_params_rejected(tmp_path):
    path = write(
        tmp_path,
        "tasks = occupation\nparams.g = 0.1\nparams.lambda_a = 1\n"
        "params.gamma_a = -1\nparams.gamma_b = 1\n",
    )
    with pytest.raises(ConfigError, match="invalid parameters"):
        parse_config(path)


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("name", [f.name for f in fields(SystemParams)])
def test_run_rejects_non_finite_parameters(tmp_path, capsys, name, value):
    # nan < 0 is False: a sign check alone lets non-finite values through
    text = "tasks = uncertainty\n" + params_text(**{"kappa_e": 0.1, "nbar": 0.0, name: value})
    out = tmp_path / "o"
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: invalid parameters: {name} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("dim", ("-5", "0"))
def test_run_rejects_a_non_positive_signal_dim(tmp_path, capsys, dim):
    # meanfield never builds a Fock space, so only the parser can catch it
    text = "tasks = meanfield\n" + params_text() + f"truncation.signal_dim = {dim}\n"
    out = tmp_path / "o"
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(out)]) == 2
    assert f"truncation.signal_dim must be >= 1, got {dim}" in capsys.readouterr().err
    assert not out.exists()


def test_comparison_row_semantics():
    row = ComparisonRow("x", analytic=2.0, numeric=2.002, tolerance=1e-2)
    assert row.rel_dev == pytest.approx(1e-3)
    assert row.passed
    tight = ComparisonRow("x", analytic=2.0, numeric=2.002, tolerance=1e-4)
    assert not tight.passed
    # zero reference: the 1e-12 floor keeps the ratio finite
    null = ComparisonRow("x", analytic=0.0, numeric=1e-13, tolerance=1.0)
    assert null.rel_dev == pytest.approx(0.1)
    # the floor bounds the denominator from below; above it the ratio is relative
    cases = [
        # analytic, numeric, rel_dev, passed
        (0.0, 1e-9, 1e3, False),
        (1e-4, 2e-4, 1.0, False),
    ]
    for analytic, numeric, rel_dev, passed in cases:
        row = ComparisonRow("x", analytic, numeric, tolerance=1e-6)
        assert row.rel_dev == pytest.approx(rel_dev), (analytic, numeric)
        assert row.passed is passed, (analytic, numeric)


def test_run_end_to_end_and_outputs(tmp_path, capsys):
    cfg = write(tmp_path, GOOD)
    out = tmp_path / "out"
    code = main(["run", str(cfg), "--out-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "occupation_rel_dev_strictly_decreasing_toward_small_g" in printed

    csv_path = out / "demo_occupation.csv"
    json_path = out / "demo_occupation.json"
    assert csv_path.exists() and json_path.exists()
    assert (out / "demo_gap.csv").exists()

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "g,Nb_three_level,Nb_exact,rel_dev"
    assert len(lines) == 4
    # 17-significant-digit floats: 0.05 keeps its binary expansion
    assert lines[2].startswith("0.050000000000000003,")

    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == 4
    assert "tolerances" not in payload
    assert payload["task"] == "occupation"
    assert payload["scenario"] == "demo"
    assert payload["params"] == {
        "g": 0.1, "lambda_a": 0.01, "gamma_a": 10.0, "gamma_b": 1.0, "kappa_e": 0.0, "nbar": 0.0
    }
    assert payload["truncation"] == {"signal_dim": 20}
    assert payload["sweep"] == {"parameter": "g", "values": [0.02, 0.05, 0.1]}
    assert payload["columns"][0] == "g"
    assert len(payload["rows"]) == 3
    keys = {"quantity", "analytic", "numeric", "rel_dev", "pass", "tolerance"}
    assert all(set(c) == keys for c in payload["comparisons"])


def test_run_byte_identical_across_thread_counts(tmp_path):
    # the test scenario at 4 threads and every shipped config at 2
    inputs = [(write(tmp_path, GOOD), "4")]
    inputs += [(cfg, "2") for cfg in sorted(CONFIGS.glob("*.cfg"))]
    assert inputs[1:], "no shipped configs found"
    for cfg, threads in inputs:
        out1, outn = tmp_path / cfg.stem / "one", tmp_path / cfg.stem / threads
        assert main(["run", str(cfg), "--out-dir", str(out1), "--threads", "1"]) == 0
        assert main(["run", str(cfg), "--out-dir", str(outn), "--threads", threads]) == 0
        files = sorted(p.name for p in out1.iterdir())
        tasks = parse_config(cfg).tasks
        assert len(files) == 2 * len(tasks), cfg
        assert sorted(p.name for p in outn.iterdir()) == files
        for name in files:
            assert (out1 / name).read_bytes() == (outn / name).read_bytes(), (cfg, name)


def test_cold_run_byte_identical_across_thread_counts(tmp_path):
    # fresh interpreters, so that the pool's threads race on the first
    # import of scipy.sparse
    cfg = CONFIGS / "sensor.cfg"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for threads in ("4", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "pdclab.cli", "run", str(cfg),
             "--out-dir", str(tmp_path / threads), "--threads", threads],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
    files = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(files) == 2 * len(parse_config(cfg).tasks)
    assert sorted(p.name for p in (tmp_path / "4").iterdir()) == files
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "4" / name).read_bytes(), name


def test_run_exit_1_on_tolerance_failure(tmp_path, capsys):
    # the three-level occupation is 4% off here: a fail against its 2% bound
    text = (
        "name = miss\ntasks = occupation\n"
        "params.g = 0.5\nparams.lambda_a = 2.0\n"
        "params.gamma_a = 10.0\nparams.gamma_b = 1.0\n"
        "sweep.parameter = g\nsweep.values = 0.5\n"
    )
    code = main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "NO" in capsys.readouterr().out
    payload = json.loads((tmp_path / "o" / "miss_occupation.json").read_text())
    [miss] = [c for c in payload["comparisons"] if not c["pass"]]
    assert miss["quantity"] == "occupation_Nb_three_level@g=0.5"
    assert miss["tolerance"] == 0.02
    assert 0.02 < miss["rel_dev"] < 0.1


def test_run_tolerance_floor_reaches_verdict(tmp_path, capsys):
    # the 1e-12 floor sits far below N_b, so the 4% miss stays a relative
    # verdict; the override that once made it an absolute bound is refused
    text = (
        "name = floor\ntasks = occupation\n"
        "params.g = 0.5\nparams.lambda_a = 2.0\n"
        "params.gamma_a = 10.0\nparams.gamma_b = 1.0\n"
        "sweep.parameter = g\nsweep.values = 0.5\n"
    )
    relative = write(tmp_path, text, "relative.cfg")
    absolute = write(tmp_path, text + "tolerances.floor = 1.0\n", "absolute.cfg")
    assert main(["run", str(relative), "--out-dir", str(tmp_path / "r")]) == 1
    payload = json.loads((tmp_path / "r" / "floor_occupation.json").read_text())
    [miss] = [c for c in payload["comparisons"] if not c["pass"]]
    assert 0.0 < miss["analytic"] < 1.0
    assert miss["rel_dev"] == pytest.approx(
        abs(miss["numeric"] - miss["analytic"]) / abs(miss["analytic"]), rel=1e-12
    )
    capsys.readouterr()
    assert main(["run", str(absolute), "--out-dir", str(tmp_path / "a")]) == 2
    assert "unknown config keys: tolerances.floor" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_run_sensor_argmin_bound_is_the_gap_next_to_the_argmin(tmp_path, monkeypatch):
    # a delta2_lambda table whose smallest value sits at 0.5 g*: the grid
    # neighbours 0.25 g* and 0.75 g* bound the argmin to 25%, so it misses
    from pdclab import analytic

    g_star = math.sqrt(10.0 * 0.1 / 2.0)  # sqrt(gamma_a kappa_e / 2)
    real = analytic.lambda_sensor

    def shifted(p):
        _, _, opt = real(p)
        d2 = 1.0 + (p.g / g_star - 0.5) ** 2
        return d2, d2, opt

    monkeypatch.setattr(analytic, "lambda_sensor", shifted)
    text = "name = shifted\ntasks = sensor\n" + params_text(gamma_b=0.0, kappa_e=0.1)
    code = main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    payload = json.loads((tmp_path / "o" / "shifted_sensor.json").read_text())
    verdicts = {c["quantity"]: c for c in payload["comparisons"]}
    argmin = verdicts.pop("sensor_grid_argmin_vs_closed")
    assert argmin["numeric"] == pytest.approx(0.5 * g_star)
    assert argmin["tolerance"] == pytest.approx(0.25)
    assert not argmin["pass"]
    assert all(c["pass"] for c in verdicts.values())


def test_gap_reports_the_truncation_it_used(tmp_path):
    # the gap task caps the signal truncation at 24 whatever the config asks
    text = GOOD.replace("tasks = occupation, gap", "tasks = gap").replace(
        "truncation.signal_dim = 20", "truncation.signal_dim = 40"
    )
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "demo_gap.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["dim"] for row in rows] == ["24", "24", "24"]
    payload = json.loads((tmp_path / "o" / "demo_gap.json").read_text())
    assert payload["truncation"]["signal_dim"] == 40
    assert [row[-1] for row in payload["rows"]] == [24, 24, 24]


MEANFIELD_FAR_ABOVE = (
    "name = mf\ntasks = meanfield\n"
    "params.g = 1.0\nparams.lambda_a = 0.2\n"
    "params.gamma_a = 1.0\nparams.gamma_b = 1.0\n"
    "sweep.parameter = lambda_a\nsweep.values = 0.3, 1e9\n"
)


def test_run_meanfield_far_above_threshold(tmp_path, capsys):
    # lambda_a = 1e9 leaves a float64 round-off residual near 1e-7 in the
    # mean-field equations; relative to their terms it is 1e-16
    path = write(tmp_path, MEANFIELD_FAR_ABOVE)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "o" / "mf_meanfield.csv").read_text().splitlines()
    assert lines[2].startswith("1000000000,1000000000,0.5,2,false,true")


def test_run_exit_3_on_mean_field_residual_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pdclab.meanfield.mean_field_residual", lambda params, sol: 1.0)
    path = write(tmp_path, MEANFIELD_FAR_ABOVE)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "solver failure: ResidualError" in err


def test_run_exit_2_on_config_error(tmp_path, capsys):
    path = write(tmp_path, GOOD + "bogus.key = 1\n")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    for text, message in [
        (GOOD + "sweep.values 0.1\n", "bad.cfg:14: expected 'key = value'"),
        (GOOD.replace("occupation, gap", "occupation, gaps"), "unknown task 'gaps'"),
    ]:
        out = tmp_path / "o"
        assert main(["run", str(write(tmp_path, text, "bad.cfg")), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()
    # unknown keys are always rejected: there is no switch to let them through
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--out-dir", str(tmp_path / "o"), "--no-strict"])
    assert exc.value.code == 2


def test_run_exit_2_on_unusable_out_dir(tmp_path, capsys):
    # an existing file where the output directory should be: one line, no traceback
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["run", str(write(tmp_path, GOOD)), "--out-dir", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("tasks = occupation, gap", "tasks = occupation, gap, occupation",
         "task 'occupation' is listed twice"),
        ("sweep.values = 0.02, 0.05, 0.1", "sweep.values = 0.02, 0.05, 0.050",
         "sweep.values repeats a value"),
    ],
    ids=["tasks", "sweep.values"],
)
def test_run_exit_2_on_repeated_entries(tmp_path, capsys, old, new, message):
    out = tmp_path / "o"
    assert main(["run", str(write(tmp_path, GOOD.replace(old, new))), "--out-dir", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ("0", "-3"))
def test_run_rejects_a_thread_count_below_one(tmp_path, capsys, threads):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(write(tmp_path, GOOD)), "--out-dir", str(out), "--threads", threads])
    assert exc.value.code == 2
    assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_run_exit_2_on_non_integer_truncation(tmp_path, capsys):
    path = write(tmp_path, GOOD.replace("signal_dim = 20", "signal_dim = 20.5"))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "cannot parse numeric value for truncation.signal_dim: '20.5'" in err


def test_run_exit_2_on_task_domain_error(tmp_path, capsys):
    text = (
        "name = x\ntasks = qfi\n"
        "params.g = 0.1\nparams.lambda_a = 1.0\n"
        "params.gamma_a = 10.0\nparams.gamma_b = 0.5\nparams.kappa_e = 0.1\n"
    )
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")]) == 2
    assert "gamma_b = 0" in capsys.readouterr().err


def test_run_exit_3_on_solver_failure(tmp_path, capsys):
    # two-photon-only loss has a degenerate steady manifold
    text = (
        "name = degen\ntasks = steady_moments\n"
        "params.g = 0.2\nparams.lambda_a = 0.5\n"
        "params.gamma_a = 4.0\nparams.gamma_b = 0.0\nparams.kappa_e = 0.05\n"
        "truncation.signal_dim = 12\n"
    )
    code = main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err
    # a signal truncation too small for the drive: the top levels stay populated
    text = (
        "name = cramped\ntasks = steady_moments\n"
        "params.g = 0.3\nparams.lambda_a = 4.0\n"
        "params.gamma_a = 6.0\nparams.gamma_b = 0.5\n"
        "truncation.signal_dim = 6\n"
    )
    out = tmp_path / "cramped"
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(out)]) == 3
    assert "solver failure: TruncationError: top-level population" in capsys.readouterr().err
    assert not out.exists()


SWEPT = (
    "name = swept\nparams.g = 0.1\nparams.lambda_a = 1.0\nparams.gamma_a = 10.0\n"
)


def test_run_uncertainty_branches_on_the_swept_point(tmp_path, capsys):
    # a gamma_b = 0 base swept into gamma_b > 0 takes the normal-phase routes there
    text = SWEPT + (
        "params.gamma_b = 0.0\ntasks = uncertainty\n"
        "sweep.parameter = gamma_b\nsweep.values = 0.5, 1.0\n"
    )
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "swept_uncertainty.json").read_text())
    assert [c["quantity"] for c in payload["comparisons"]] == [
        "delta2_g_printed_vs_moments@0.5", "delta2_g_printed_vs_moments@1"
    ]
    assert "photon_vs_qcrb" not in capsys.readouterr().out


def test_run_uncertainty_at_gamma_b_kappa_e_zero_reads_the_qfi(tmp_path, monkeypatch):
    # at gamma_b = kappa_e = 0 the photon form is checked against 1 / QFI, so a
    # wrong QFI fails the verdict
    from pdclab import analytic

    text = SWEPT + (
        "params.gamma_b = 0.0\ntasks = uncertainty\n"
        "sweep.parameter = g\nsweep.values = 0.05, 0.1, 0.3\n"
    )
    path = write(tmp_path, text)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    closed = analytic.qfi_gb0_closed
    monkeypatch.setattr(analytic, "qfi_gb0_closed", lambda p: 2.0 * closed(p))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "bad")]) == 1
    payload = json.loads((tmp_path / "bad" / "swept_uncertainty.json").read_text())
    assert [c["quantity"] for c in payload["comparisons"]] == [
        "delta2_g_photon_vs_qcrb@0.05", "delta2_g_photon_vs_qcrb@0.1",
        "delta2_g_photon_vs_qcrb@0.3",
    ]


def test_run_supercritical_uncertainty_exits_3(tmp_path, capsys):
    # lambda_c = gamma_a gamma_b / (2 g) = 50: no normal-phase moments at or above it
    text = SWEPT + "params.gamma_b = 1.0\ntasks = uncertainty\nsweep.parameter = lambda_a\n"
    for values in ("60.0", "50.0"):
        path = write(tmp_path, text + f"sweep.values = {values}\n")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 3
        assert "solver failure: StabilityError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rates, sweep, task, message",
    [
        ("params.gamma_b = 1.0\n", "nbar\nsweep.values = 0, 2", "uncertainty",
         "uncertainty task compares routes at nbar = 0"),
        ("params.gamma_b = 0.0\nparams.kappa_e = 0.1\n", "gamma_b\nsweep.values = 0, 0.5",
         "qfi", "this branch form holds only at gamma_b = 0"),
    ],
    ids=["uncertainty-nbar", "qfi-gamma_b"],
)
def test_run_checks_task_preconditions_at_every_point(tmp_path, capsys, rates, sweep, task,
                                                      message):
    text = SWEPT + rates + f"tasks = {task}\nsweep.parameter = {sweep}\n"
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o" / f"swept_{task}.csv").exists()


@pytest.mark.parametrize(
    "params, tasks, code, message",
    [
        (dict(gamma_b=0.5, kappa_e=0.1), "meanfield, qfi", 2,
         "config error: this branch form holds only at gamma_b = 0"),
        (dict(lambda_a=0.0, gamma_b=0.0, kappa_e=0.1), "occupation, sensor", 2,
         "config error: requires lambda_a != 0"),
        (dict(nbar=0.5), "gap, uncertainty", 2,
         "config error: uncertainty task compares routes at nbar = 0"),
        (dict(nbar=0.5), "meanfield, occupation", 2,
         "config error: three-level equations assume a zero-temperature signal bath"),
        (dict(nbar=0.5), "meanfield, steady_moments", 2,
         "config error: moment series assumes a zero-temperature signal bath"),
        (dict(g=0.0), "gap, meanfield", 2, "config error: critical drive undefined at g <= 0"),
        (dict(g=0.0, gamma_b=0.0, kappa_e=0.1), "occupation, qfi", 2,
         "config error: requires g > 0"),
        (dict(gamma_b=0.0, kappa_e=0.05), "occupation, steady_moments", 3,
         "solver failure: SteadyStateDegenerateError"),
        (dict(gamma_b=0.0), "qfi", 0, None),
    ],
    ids=["qfi-gamma_b", "sensor-lambda_a", "uncertainty-nbar", "occupation-nbar",
         "steady_moments-nbar", "meanfield-g", "qfi-g", "steady_moments-degenerate",
         "qfi-kappa_e-zero"],
)
def test_run_writes_files_only_when_every_task_succeeds(tmp_path, capsys, params, tasks,
                                                        code, message):
    # the library function that owns a task's domain rejects the point when
    # the task computes it; by then the earlier task has computed, not written
    text = f"name = d\ntasks = {tasks}\ntruncation.signal_dim = 12\n" + params_text(**params)
    out = tmp_path / "o"
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert sorted(p.name for p in out.iterdir()) == [f"d_{tasks}.csv", f"d_{tasks}.json"]
    else:
        assert message in err
        assert not out.exists()


@pytest.mark.parametrize("task", ("occupation", "sensor"))
def test_run_g_grid_tasks_reject_other_sweeps(tmp_path, capsys, task):
    text = SWEPT + (
        "params.gamma_b = 0.0\nparams.kappa_e = 0.1\n"
        f"tasks = {task}\nsweep.parameter = lambda_a\nsweep.values = 0.01, 0.05\n"
    )
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: this task sweeps only g, not lambda_a" in capsys.readouterr().err


def test_run_validates_every_task_before_any_computes(tmp_path, capsys):
    # occupation sweeps only g; steady_moments, listed first, must not run
    text = SWEPT + (
        "params.gamma_b = 0.5\ntruncation.signal_dim = 12\n"
        "tasks = steady_moments, occupation\nsweep.parameter = lambda_a\nsweep.values = 0.5\n"
    )
    out = tmp_path / "o"
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(out)]) == 2
    assert "config error: this task sweeps only g, not lambda_a" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


ZERO_DRIVE = "name = zero\nparams.g = 0.1\nparams.lambda_a = 0.0\nparams.gamma_a = 10.0\n"


@pytest.mark.parametrize(
    "rates",
    ["params.gamma_b = 0.0\n", "params.gamma_b = 0.0\nparams.kappa_e = 0.1\n",
     "params.gamma_b = 1.0\n"],
    ids=["gb0", "gb0_kappa", "normal_phase"],
)
def test_run_zero_drive_uncertainty_exits_3(tmp_path, capsys, rates):
    # delta^2 g diverges without drive: a solver failure, not a traceback
    path = write(tmp_path, ZERO_DRIVE + rates + "tasks = uncertainty\n")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 3
    assert "solver failure: DivergenceError" in capsys.readouterr().err


def test_run_sensor_without_intrinsic_loss_checks_only_the_identity(tmp_path):
    # at kappa_e = 0 there is no interior optimum: no argmin or minimum rows
    text = "name = lossless\ntasks = sensor\n" + params_text(gamma_b=0.0)
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "lossless_sensor.json").read_text())
    assert [c["quantity"] for c in payload["comparisons"]] == [
        "sensor_identity_delta2_vs_Nb_route@g=0.025"
    ]
    assert [row[0] for row in payload["rows"]] == pytest.approx(
        [0.1 * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]
    )


def test_run_zero_drive_sensor_exits_2(tmp_path, capsys):
    # lambda_a^2 / N_b is 0/0 without drive: the sensor is undefined there
    text = ZERO_DRIVE + "params.gamma_b = 0.0\nparams.kappa_e = 0.1\ntasks = sensor\n"
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: requires lambda_a != 0" in capsys.readouterr().err


def test_run_zero_drive_sensor_writes_no_earlier_task(tmp_path, capsys):
    # qfi, listed first, computes; the sensor's domain error then writes nothing
    text = ZERO_DRIVE + "params.gamma_b = 0.0\nparams.kappa_e = 0.1\ntasks = qfi, sensor\n"
    out = tmp_path / "o"
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(out)]) == 2
    assert "config error: requires lambda_a != 0" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_run_steady_moments_sweep_through_zero_drive(tmp_path):
    text = (
        ZERO_DRIVE + "params.gamma_b = 1.0\ntasks = steady_moments\n"
        "sweep.parameter = lambda_a\nsweep.values = 0.0, 0.01\n"
        "truncation.signal_dim = 16\n"
    )
    assert main(["run", str(write(tmp_path, text)), "--out-dir", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "zero_steady_moments.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["value"]) for row in rows] == [0.0, 0.01]
    assert float(rows[0]["Nb_series"]) == float(rows[0]["Nb_liouville"]) == 0.0


def test_list_tasks_and_defaults(capsys):
    assert main(["list-tasks"]) == 0
    out = capsys.readouterr().out
    for task in ("steady_moments", "qfi", "uncertainty", "meanfield", "gap", "occupation", "sensor"):
        assert task in out
    assert main(["print-defaults"]) == 0
    out = capsys.readouterr().out
    assert "params.g" in out and "truncation.signal_dim" in out
    assert "pump_dim" not in out and "omega" not in out and "tolerances" not in out


def test_the_printed_template_runs(tmp_path, capsys):
    # each required param carries the value of configs/occupation.cfg
    assert main(["print-defaults"]) == 0
    template = capsys.readouterr().out
    for key, value in (("g", "0.1"), ("lambda_a", "0.01"), ("gamma_a", "10.0"), ("gamma_b", "1.0")):
        assert re.search(rf"^params\.{key} = {re.escape(value)} +# required$", template, re.M), key
    cfg = tmp_path / "template.cfg"
    cfg.write_text(template)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "scenario_steady_moments.csv").exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pdclab.cli", "list-tasks"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sensor" in proc.stdout


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    # a directory where the config file should be: exit 2, one line, no out dir
    out = tmp_path / "o"
    assert main(["run", str(CONFIGS), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot read config ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(CONFIGS)
