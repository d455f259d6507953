import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from barrierchain import cli, disorder
from barrierchain.chain import ChainSpec, barrier_profile, build_hamiltonian
from barrierchain.cli import ENV_OUTDIR, main
from barrierchain.metrics import average_fidelity
from barrierchain.protocol import SwitchingSchedule, simulate_protocol
from barrierchain.spectral import eigendecompose, transition_amplitude


def read_csv(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read back a file of ``_csvio.write_csv``: (columns, metadata), with
    string columns as object arrays."""
    metadata: dict[str, str] = {}
    rows: list[list[str]] = []
    header: list[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path} has no header row")
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        values = [row[j] for row in rows]
        try:
            columns[name] = np.array([float(v) for v in values])
        except ValueError:
            columns[name] = np.array(values, dtype=object)
    return columns, metadata


def run(argv, outdir, capsys, expect=0):
    old = os.environ.get(ENV_OUTDIR)
    os.environ[ENV_OUTDIR] = str(outdir)
    try:
        code = main(argv)
    finally:
        if old is None:
            os.environ.pop(ENV_OUTDIR, None)
        else:
            os.environ[ENV_OUTDIR] = old
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return captured


SPECTRUM = ["spectrum", "--n", "8", "--omega-min", "0", "--omega-max", "6", "--steps", "4"]


def test_reruns_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    run(SPECTRUM, a, capsys)
    run(SPECTRUM, b, capsys)
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


def test_spectrum_columns_and_flip(tmp_path, capsys):
    run(SPECTRUM, tmp_path, capsys)
    cols, meta = read_csv(tmp_path / "spectrum.csv")
    assert list(cols) == ["omega", "k", "lambda", "lambda_flipped"]
    assert meta["experiment"] == "spectrum"
    lam = np.asarray(cols["lambda"][:8])
    flipped = np.asarray(cols["lambda_flipped"][:8])
    assert np.allclose(flipped, -lam[::-1])


def test_out_flag_overrides_default_name(tmp_path, capsys):
    target = tmp_path / "custom.csv"
    captured = run(SPECTRUM + ["--out", str(target)], tmp_path, capsys)
    assert target.exists()
    assert str(target) in captured.out


def test_threads_flag_never_changes_output(tmp_path, capsys):
    base = ["disorder", "--n", "8", "--omega-list", "10", "--b-list", "0,1",
            "--n-samples", "6", "--seed", "4", "--window-factor", "1.0"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    run(base + ["--threads", "1"], a, capsys)
    run(base + ["--threads", "3"], b, capsys)
    assert (a / "disorder.csv").read_bytes() == (b / "disorder.csv").read_bytes()


def test_disorder_column_layout(tmp_path, capsys):
    run(["disorder", "--n", "8", "--omega-list", "10", "--b-list", "0,0.5",
         "--n-samples", "5", "--seed", "4", "--window-factor", "1.0"], tmp_path, capsys)
    cols, _ = read_csv(tmp_path / "disorder.csv")
    assert list(cols) == ["b", "omega", "mean", "stderr", "n_samples", "seed"]
    assert np.array_equal(cols["b"], [0.0, 0.5])
    assert cols["stderr"][0] <= 1e-12  # b = 0 ensemble is deterministic


def test_disorder_reports_each_clean_chain_once(tmp_path, capsys, monkeypatch):
    # the window and every ensemble at one omega share the clean chain's report
    reports = []
    report = disorder.barrier_report

    def counted(spec, omega):
        reports.append((spec.n_sites, omega))
        return report(spec, omega)

    monkeypatch.setattr(disorder, "barrier_report", counted)
    disorder._clean_rabi_time.cache_clear()
    run(["disorder", "--n", "8", "--omega-list", "10,20,40", "--b-list", "0,1,2",
         "--n-samples", "2", "--seed", "4"], tmp_path, capsys)
    disorder._clean_rabi_time.cache_clear()
    assert reports == [(8, 10.0), (8, 20.0), (8, 40.0)]


def test_disorder_names_an_overflowing_strength_before_writing(tmp_path, capsys):
    # b = 1e308 is finite, but its draw range 2b is not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        captured = run(["disorder", "--n", "8", "--omega-list", "10", "--b-list", "1,1e308",
                        "--n-samples", "2"], tmp_path, capsys, expect=1)
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "strength 1e+308" in record["message"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert list(tmp_path.iterdir()) == []


def test_leakage_writes_one_file_per_length(tmp_path, capsys):
    captured = run(["leakage", "--n-list", "8,10", "--omega-min", "4", "--omega-max", "8",
                    "--steps", "2", "--n-samples", "5", "--seed", "4",
                    "--window-factor", "1.0"], tmp_path, capsys)
    assert len(captured.out.strip().splitlines()) == 2
    for n in (8, 10):
        cols, meta = read_csv(tmp_path / f"leakage_n{n}.csv")
        assert list(cols) == ["omega", "mean", "stderr", "n_samples", "seed"]
        assert int(meta["n"]) == n


@pytest.mark.parametrize("argv, clash", [
    (["ebit", "--n", "9", "--omega-list", "5.0000001,5", "--points", "5"], "ebit_omega5.csv"),
    (["leakage", "--n-list", "8,10,8", "--steps", "2", "--n-samples", "5"], "leakage_n8.csv"),
])
def test_sweep_values_that_share_a_file_fail_before_any_run(argv, clash, tmp_path, capsys):
    captured = run(argv, tmp_path, capsys, expect=1)
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error["error"] == "ValueError"
    assert clash in error["message"]
    assert list(tmp_path.iterdir()) == []


def test_ebit_writes_one_file_per_omega_with_window(tmp_path, capsys):
    run(["ebit", "--n", "10", "--omega-list", "4,8", "--points", "16"], tmp_path, capsys)
    for omega in (4, 8):
        cols, meta = read_csv(tmp_path / f"ebit_omega{omega}.csv")
        assert list(cols) == ["t", "abs_p_Nm1", "abs_p_N", "concurrence"]
        assert float(meta["omega"]) == float(omega)
        assert float(meta["window_lo"]) == 0.0
        assert float(meta["window_hi"]) > 0.0
        assert len(cols["t"]) == 16
        c = np.asarray(cols["concurrence"])
        pn = np.asarray(cols["abs_p_N"])
        pm = np.asarray(cols["abs_p_Nm1"])
        assert np.allclose(c, 2.0 * pm * pn, atol=1e-12)


def test_transfer_and_maxfid_smoke(tmp_path, capsys):
    run(["transfer", "--n", "10", "--omega", "5", "--T", "40", "--points", "21"],
        tmp_path, capsys)
    cols, _ = read_csv(tmp_path / "transfer.csv")
    assert list(cols) == ["t", "abs_f", "avg_fidelity", "concurrence"]
    assert len(cols["t"]) == 21
    # floats are written with repr, so the columns read back exactly
    spec = ChainSpec(10)
    decomp = eigendecompose(build_hamiltonian(spec, barrier_profile(spec, 5.0)))
    times = np.linspace(0.0, 40.0, 21)
    assert np.array_equal(cols["t"], times)
    assert np.array_equal(cols["abs_f"], np.abs(transition_amplitude(decomp, 1, 10, times)))
    assert np.array_equal(cols["avg_fidelity"], average_fidelity(cols["abs_f"]))
    assert np.array_equal(cols["concurrence"], cols["abs_f"])

    run(["maxfid", "--n-min", "6", "--n-max", "8", "--n-step", "2",
         "--omega-min", "0", "--omega-max", "10", "--omega-steps", "2", "--T", "60"],
        tmp_path, capsys)
    cols, _ = read_csv(tmp_path / "maxfid.csv")
    assert list(cols) == ["n", "omega", "t_star", "max_avg_fidelity"]
    assert np.array_equal(cols["n"], [6, 6, 8, 8])


def test_scaling_and_effective_smoke(tmp_path, capsys):
    run(["scaling", "--n-list", "8,9", "--omega-min", "5", "--omega-max", "20",
         "--steps", "3"], tmp_path, capsys)
    cols, _ = read_csv(tmp_path / "scaling.csv")
    assert list(cols) == ["n", "omega", "gap", "t_max"]
    assert np.allclose(np.asarray(cols["t_max"]), np.pi / np.asarray(cols["gap"]))

    run(["effective", "--n-min", "8", "--n-max", "10", "--n-step", "2",
         "--omega-list", "10"], tmp_path, capsys)
    cols, _ = read_csv(tmp_path / "effective.csv")
    assert list(cols) == ["n", "omega", "gap_exact", "gap_effective", "ratio"]


def test_ipr_tracks_four_states_per_omega(tmp_path, capsys):
    run(["ipr", "--n", "10", "--omega-min", "2", "--omega-max", "20", "--steps", "3"],
        tmp_path, capsys)
    cols, _ = read_csv(tmp_path / "ipr.csv")
    assert list(cols) == ["omega", "role", "k", "lambda", "ipr"]
    assert len(cols["omega"]) == 12
    assert set(cols["role"]) == {"barrier", "end"}
    assert all(v >= 1.0 for v in cols["ipr"])


def test_protocol_outputs_csv_and_json(tmp_path, capsys):
    captured = run(["protocol", "--n", "8", "--k1", "8", "--k2", "4", "--t1", "5",
                    "--window", "20"], tmp_path, capsys)
    paths = captured.out.strip().splitlines()
    assert paths[0].endswith("protocol.csv")
    assert paths[1].endswith("protocol.json")
    cols, meta = read_csv(tmp_path / "protocol.csv")
    assert list(cols) == ["t", "omega2", "omegaNm1", "abs_f", "avg_fidelity"]
    lines = (tmp_path / "protocol.csv").read_text().splitlines()
    assert lines[0] == "# tool = barrierchain"
    header = lines.index("t,omega2,omegaNm1,abs_f,avg_fidelity")
    assert all(line.startswith("# ") for line in lines[:header])
    assert meta["n"] == "8"
    # one row per sample time, each the trajectory's value to the last bit
    closed = 0.5 * np.pi * 16.0
    schedule = SwitchingSchedule(k1=8.0, k2=4.0, delta_t=closed, t1=5.0)
    traj = simulate_protocol(ChainSpec(8), schedule, t_end=schedule.t2 + 20.0)
    assert len(lines) == header + 1 + len(traj.times)
    for name, column in [("t", traj.times), ("omega2", traj.omega2), ("omegaNm1", traj.omega_nm1),
                         ("abs_f", traj.abs_f), ("avg_fidelity", traj.avg_fidelity)]:
        assert np.array_equal(cols[name], column)
    body = json.loads((tmp_path / "protocol.json").read_text())
    assert body["closed_form_interval"] == pytest.approx(closed)
    assert body["two_level_interval"] == pytest.approx(4.0 * closed)
    assert body["interval_used"] == pytest.approx(closed)
    assert body["optimized_interval"] is None
    assert 0.0 < body["final_avg_fidelity"] <= 1.0
    assert body["storage_drift"] >= 0.0
    assert body["t2"] == pytest.approx(5.0 + closed)
    assert body["config"]["experiment"] == "protocol"


def test_oracle_check_passes_and_fails(tmp_path, capsys):
    run(["oracle-check", "--n-min", "4", "--n-max", "5", "--pairs", "2"], tmp_path, capsys)
    body = json.loads((tmp_path / "oracle-check.json").read_text())
    assert body["pass"] is True
    assert body["checks"] == 4
    assert body["max_abs_error"] <= 1e-10

    # a NaN tolerance passes nothing: the report and the exit code agree
    for tol in ("1e-18", "nan"):
        captured = run(["oracle-check", "--n-min", "4", "--n-max", "4", "--pairs", "2",
                        "--tol", tol, "--out", str(tmp_path / "strict.json")],
                       tmp_path, capsys, expect=1)
        error = json.loads(captured.err.strip().splitlines()[-1])
        assert error["error"] == "ValueError"
        # the report is still written so the failure can be inspected
        assert json.loads((tmp_path / "strict.json").read_text())["pass"] is False


@pytest.mark.parametrize(
    "flags, named",
    [(["--pairs", "0"], "--pairs 0"), (["--n-min", "9", "--n-max", "8"], "N range 9..8 is empty")],
)
def test_oracle_check_fails_when_it_would_check_nothing(tmp_path, capsys, flags, named):
    # zero checks used to write "checks": 0, "pass": true
    captured = run(["oracle-check", *flags], tmp_path, capsys, expect=1)
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error["error"] == "ValueError"
    assert "nothing to check" in error["message"] and named in error["message"]
    assert not (tmp_path / "oracle-check.json").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["maxfid", "--n-min", "12", "--n-max", "10"], "the N range 12..10 (step 1) gives no chain lengths"),
        (["maxfid", "--omega-steps", "0"], "--omega-steps 0 gives no omega values"),
        (["spectrum", "--steps", "0"], "--steps 0 gives no omega values"),
        (["ipr", "--steps", "0"], "--steps 0 gives no omega values"),
        (["scaling", "--steps", "0"], "--steps 0 gives no omega values"),
        (["transfer", "--points", "0"], "--points 0 gives no times"),
        (["ebit", "--points", "0"], "--points 0 gives no times"),
        (["effective", "--n-min", "12", "--n-max", "10"], "the N range 12..10 (step 1) gives no chain lengths"),
    ],
)
def test_empty_sweeps_fail_before_writing(tmp_path, capsys, argv, named):
    # each used to write a header-only file (ebit three of them) and exit 0
    captured = run(argv, tmp_path, capsys, expect=1)
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error["error"] == "ValueError"
    assert error["message"] == f"empty sweep: {named}"
    assert list(tmp_path.iterdir()) == []


def test_oracle_check_fails_on_a_nan_error(tmp_path, capsys, monkeypatch):
    # one NaN among finite errors: the report shows it and the run fails
    real, calls = cli.oracle_transition_amplitude, []

    def oracle(*args):
        calls.append(args)
        return complex("nan") if len(calls) == 2 else real(*args)

    monkeypatch.setattr(cli, "oracle_transition_amplitude", oracle)
    run(["oracle-check", "--n-min", "4", "--n-max", "5", "--pairs", "2"], tmp_path, capsys, expect=1)
    body = json.loads((tmp_path / "oracle-check.json").read_text())
    assert len(calls) == 4
    assert body["pass"] is False
    assert np.isnan(body["max_abs_error"])


def test_oracle_check_runs_past_the_dense_size_cap(tmp_path, capsys):
    # the oracle assembles only the blocks a state reaches, so N > 12 runs
    run(["oracle-check", "--n-min", "13", "--n-max", "16", "--pairs", "2"], tmp_path, capsys)
    body = json.loads((tmp_path / "oracle-check.json").read_text())
    assert body["pass"] is True
    assert body["checks"] == 8


# (config text, equivalent flags, files written); one case per kind of value:
# ints and floats, a switch, int and float lists, strings, negatives, exponents
CONFIG_CASES = {
    "spectrum": (
        "experiment = spectrum\nn = 8\nomega-min = 0\nomega-max = 6\nsteps = 4\n",
        SPECTRUM,
        ["spectrum.csv"],
    ),
    "protocol": (
        "experiment = protocol\nn = 8\nk1 = 8.0\nk2 = 4.0\nt1 = 5.0\nwindow = 20.0\noptimize = True\n",
        ["protocol", "--n", "8", "--k1", "8", "--k2", "4", "--t1", "5", "--window", "20", "--optimize"],
        ["protocol.csv", "protocol.json"],
    ),
    "leakage": (
        "experiment = leakage\nn_list = [8, 10]\nomega_min = 4\nomega_max = 8\nsteps = 2\n"
        "window_factor = 1.0\nmetric = max-fidelity\nn_samples = 5\nseed = 4\n",
        ["leakage", "--n-list", "8,10", "--omega-min", "4", "--omega-max", "8", "--steps", "2",
         "--window-factor", "1.0", "--metric", "max-fidelity", "--n-samples", "5", "--seed", "4"],
        ["leakage_n8.csv", "leakage_n10.csv"],
    ),
    "ebit": (
        "experiment = ebit\nn = 10\nomega_list = [4.0, 8.5]\npoints = 16\nalpha = 0.6\nbeta = -0.8\n",
        ["ebit", "--n", "10", "--omega-list", "4,8.5", "--points", "16", "--alpha", "0.6",
         "--beta", "-0.8"],
        ["ebit_omega4.csv", "ebit_omega8.5.csv"],
    ),
    "oracle-check": (
        "experiment = oracle-check\nn_min = 4\nn_max = 5\npairs = 2\ntol = 1e-10\n",
        ["oracle-check", "--n-min", "4", "--n-max", "5", "--pairs", "2", "--tol", "0.0000000001"],
        ["oracle-check.json"],
    ),
}


@pytest.mark.parametrize("experiment", list(CONFIG_CASES))
def test_config_file_matches_flags(experiment, tmp_path, capsys):
    text, flags, names = CONFIG_CASES[experiment]
    cfg = tmp_path / f"{experiment}.cfg"
    cfg.write_text(text)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    run(flags, a, capsys)
    run([experiment, "--config", str(cfg)], b, capsys)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    if experiment == "protocol":
        assert json.loads((b / "protocol.json").read_text())["config"]["optimize"] is True


def test_config_value_is_validated_like_its_flag(tmp_path, capsys):
    base = ["disorder", "--n", "8", "--omega-list", "10", "--b-list", "0", "--n-samples", "2"]
    cfg = tmp_path / "bad.cfg"
    for key, value, message in [("metric", "bogus", "invalid choice: 'bogus'"),
                                ("n", "eight", "invalid int value: 'eight'")]:
        cfg.write_text(f"{key} = {value}\n")
        for argv in (base + [f"--{key}", value], base + ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                run(argv, tmp_path, capsys)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["scaling", "--n-list", "8.7"], "not a list of integers: '8.7'"),
    (["leakage", "--n-list", "10,inf"], "not a list of integers: '10,inf'"),
    (["disorder", "--b-list", ","], "empty list: ','"),
    (["effective", "--omega-list", ""], "empty list: ''"),
    (["scaling", "--n-list", " , "], "empty list: ' , '"),
])
def test_bad_list_flag_is_a_usage_error(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv, tmp_path, capsys)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_int_list_accepts_integral_values(tmp_path, capsys):
    run(["scaling", "--n-list", "8,10.0", "--steps", "2"], tmp_path, capsys)
    _, meta = read_csv(tmp_path / "scaling.csv")
    assert meta["n_list"] == "[8, 10]"


def test_logged_protocol_config_loads_back(tmp_path, capsys):
    # the JSON's config block holds delta_t = t_end = None (flag defaults);
    # tool and version describe the program, not a flag, so they are left out
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    run(["protocol", "--n", "8", "--k1", "8", "--k2", "4", "--t1", "5", "--window", "20"], a, capsys)
    config = json.loads((a / "protocol.json").read_text())["config"]
    assert config["delta_t"] is None and config["t_end"] is None
    cfg = tmp_path / "logged.cfg"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in config.items()
                           if key not in ("tool", "version")))
    run(["protocol", "--config", str(cfg)], b, capsys)
    for name in ("protocol.csv", "protocol.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_none_for_a_valued_flag_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = None\n")
    with pytest.raises(SystemExit) as exc:
        run(["protocol", "--config", str(cfg)], tmp_path, capsys)
    assert exc.value.code == 2
    assert "invalid int value: 'None'" in capsys.readouterr().err


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text("n = 8\nomega-min = 0\nomega-max = 6\nsteps = 4\n")
    run(["spectrum", "--config", str(cfg), "--steps", "3"], tmp_path, capsys)
    cols, _ = read_csv(tmp_path / "spectrum.csv")
    assert len(cols["omega"]) == 3 * 8


def test_config_big_t_alias(tmp_path, capsys):
    cfg = tmp_path / "transfer.cfg"
    cfg.write_text("experiment = transfer\nn = 8\nomega = 5\nT = 30\npoints = 7\n")
    run(["transfer", "--config", str(cfg)], tmp_path, capsys)
    cols, _ = read_csv(tmp_path / "transfer.csv")
    assert cols["t"][-1] == pytest.approx(30.0)


def test_config_experiment_mismatch_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = spectrum\nn = 8\n")
    captured = run(["ipr", "--config", str(cfg)], tmp_path, capsys, expect=1)
    assert "spectrum" in captured.err


def test_config_unknown_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 8\nmystery = 1\n")
    captured = run(["spectrum", "--config", str(cfg)], tmp_path, capsys, expect=1)
    assert "mystery" in captured.err


def test_headers_do_not_leak_paths_or_threads(tmp_path, capsys):
    run(["disorder", "--n", "8", "--omega-list", "10", "--b-list", "0",
         "--n-samples", "2", "--seed", "4", "--window-factor", "1.0",
         "--threads", "2", "--out", str(tmp_path / "d.csv")], tmp_path, capsys)
    header = (tmp_path / "d.csv").read_text()
    assert "threads" not in header
    assert str(tmp_path) not in header


def test_errors_are_json_records(tmp_path, capsys):
    captured = run(["ipr", "--omega-min", "0"], tmp_path, capsys, expect=1)
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "--omega-min" in record["argv"] or "ipr" in record["argv"]


PROTOCOL8 = ["protocol", "--n", "8", "--k1", "8", "--k2", "4", "--t1", "5", "--window", "10", "--sample-dt", "0.5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ebit", "--n", "12", "--omega-list", "5", "--points", "5", "--alpha", "nan", "--beta", "nan"],
        PROTOCOL8 + ["--tau-s", "inf"],
        PROTOCOL8 + ["--tau-s", "nan"],
        ["protocol", "--n", "8", "--k1", "8", "--k2", "nan", "--t1", "5", "--window", "10", "--sample-dt", "0.5"],
        PROTOCOL8 + ["--delta-t", "nan"],
        ["disorder", "--n", "8", "--omega-list", "10", "--b-list", "nan", "--n-samples", "2"],
        PROTOCOL8 + ["--sample-dt", "nan"],
        PROTOCOL8 + ["--window", "nan"],
        PROTOCOL8 + ["--window", "inf"],
        PROTOCOL8 + ["--t-end", "nan"],
        ["maxfid", "--n-min", "8", "--n-max", "8", "--omega-steps", "2", "--T", "nan"],
        ["maxfid", "--n-min", "8", "--n-max", "8", "--omega-steps", "2", "--T", "inf"],
        ["disorder", "--n", "8", "--omega-list", "10", "--n-samples", "2", "--window-factor", "nan"],
    ],
)
def test_non_finite_inputs_fail_before_any_file(argv, tmp_path, capsys):
    captured = run(argv, tmp_path, capsys, expect=1)
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "finite" in record["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_out_of_range_seed_fails_before_any_file(seed, tmp_path, capsys):
    argv = ["disorder", "--n", "8", "--omega-list", "10", "--n-samples", "2", "--seed", seed]
    captured = run(argv, tmp_path, capsys, expect=1)
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert f"seed must lie in [0, 2**64), got {seed}" in record["message"]
    assert list(tmp_path.iterdir()) == []


ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = (
    "spectrum", "ipr", "transfer", "maxfid", "scaling", "disorder", "leakage", "ebit", "protocol",
    "effective", "oracle-check",
)


class _Parsed(Exception):
    """Raised once the arguments are parsed, so that nothing runs."""


def test_main_parses_with_the_named_subcommands_parser_alone(tmp_path, capsys, monkeypatch):
    """For every shipped config and every benchmark workload at seeds 0 and
    1, main builds the parser of the named subcommand alone, and it gives the
    Namespace of the full parser, which the run headers embed."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    cases = [[cfg.stem, "--config", str(cfg)] for cfg in sorted((ROOT / "configs").glob("*.cfg"))]
    cases += [workloads["argv"](name, seed, str(tmp_path)) for seed in (0, 1) for name in workloads["WORKLOADS"]]
    full_build, full_parse = cli.build_parser, cli._parse_args
    built, parsed = [], []

    def build(command=None):
        built.append(command)
        return full_build(command)

    def parse(parser, argv):
        parsed.append(full_parse(parser, argv))
        raise _Parsed

    monkeypatch.setattr(cli, "build_parser", build)
    monkeypatch.setattr(cli, "_parse_args", parse)
    for argv in cases:
        assert main(argv) == 1
        assert built[-1] == argv[0]
        assert parsed[-1] == full_parse(full_build(), argv)
    assert {argv[0] for argv in cases} == set(SUBCOMMANDS)
    capsys.readouterr()


def _exit(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_help_lists_every_subcommand(capsys):
    code, out, _ = _exit(main, ["--help"], capsys)
    assert code == 0
    for name in SUBCOMMANDS:
        assert f"    {name} " in out


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_is_the_full_parsers(name, capsys):
    code, out, _ = _exit(main, [name, "--help"], capsys)
    assert code == 0
    assert out.startswith(f"usage: barrierchain {name} [-h]")
    assert (code, out) == _exit(cli.build_parser().parse_args, [name, "--help"], capsys)[:2]


@pytest.mark.parametrize("argv", [["disorder", "--bogus", "1"], ["maxfid", "--n-min", "x"], ["protocol", "1"]])
def test_one_subcommand_parser_errors_read_as_the_full_parsers(argv, capsys):
    one = _exit(cli.build_parser(argv[0]).parse_args, argv, capsys)
    assert one[0] == 2
    assert one == _exit(cli.build_parser().parse_args, argv, capsys)


def test_unknown_subcommand_exits_2_with_the_choices(capsys):
    code, _, err = _exit(main, ["bogus"], capsys)
    assert code == 2
    assert "argument experiment: invalid choice: 'bogus'" in err
    for name in SUBCOMMANDS:
        assert f"'{name}'" in err


_THREAD_RUNS = """
import sys
from barrierchain.cli import main
for argv in (
    ["maxfid", "--n-min", "10", "--n-max", "100", "--n-step", "45", "--omega-steps", "3"],
    ["disorder", "--n", "10", "--n-samples", "12"],
):
    if main(argv) != 0:
        sys.exit(1)
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A small maxfid and disorder run, each in a fresh process with BLAS on
    1 and on 2 threads, write byte-identical files."""
    src = Path(__file__).resolve().parents[1] / "src"
    procs = {}
    for threads in ("1", "2"):
        outdir = tmp_path / threads
        outdir.mkdir()
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env[ENV_OUTDIR] = str(outdir)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        procs[threads] = subprocess.Popen([sys.executable, "-c", _THREAD_RUNS], env=env, stderr=subprocess.PIPE)
    for proc in procs.values():
        assert proc.wait(timeout=60) == 0, proc.stderr.read().decode()
        proc.stderr.close()
    names = sorted(path.name for path in (tmp_path / "1").iterdir())
    assert names == ["disorder.csv", "maxfid.csv"]
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
