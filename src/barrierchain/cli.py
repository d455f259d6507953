"""Command-line front end: deterministic sweep runner and dataset emission.

Each subcommand maps onto one analysis workflow and writes CSV (curves,
grids) or JSON (scalar summaries).  Headers embed the tool version and the
generating configuration, so re-running a config reproduces files
byte-for-byte.  `--out`, `--config`, and `--threads` are deliberately left
out of the embedded header: the first two are plumbing and the third is
accepted and ignored.  Ensembles run serially and no library function takes
a thread count; `--threads` stays only because the benchmark's `ensemble`
workload (`perfbench/workloads.py`) passes it, which
`tests/test_perfbench_guard.py` checks.

A config file is a `key = value` block (`chain.parse_config_block`); keys
mirror flag names with underscores (`T` for `--T`).  Its entries are read
as flags placed before the command line's own, so flags given on the
command line win, and each value is parsed and validated like its flag.
An entry of `None` for a flag that defaults to None keeps that default, so
the configuration a run logs (less its `tool` and `version` lines) loads
back as a config.
The `BARRIERCHAIN_OUTDIR` environment variable sets the default output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from ._csvio import write_csv
from .chain import ChainSpec, barrier_profile, ebit_barrier_profile, parse_config_block
from .disorder import (
    BARRIER_LEAKAGE,
    BULK_UNIFORM,
    MAX_CONCURRENCE,
    MAX_FIDELITY,
    DisorderModel,
    default_window,
    monte_carlo,
)
from .ebit import EbitState, ebit_window, evolve_ebit, pair_concurrence
from .effective import predicted_vs_exact_gap
from .metrics import (
    average_fidelity,
    barrier_report,
    localization_report,
    peak_search,
    rabi_transfer_time,
    transfer_series,
)
from .oracle import oracle_transition_amplitude
from .protocol import (
    SwitchingSchedule,
    optimal_interval,
    optimize_interval,
    simulate_protocol,
    storage_fidelity,
    two_level_interval,
)
from .spectral import decompose, transition_amplitude, transition_weights

ENV_OUTDIR = "BARRIERCHAIN_OUTDIR"

# header/config keys that are plumbing, not physics
_UNLOGGED = {"out", "config", "threads", "experiment"}


def _float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    values = _float_list(text)
    if not all(v.is_integer() for v in values):
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}")
    return [int(v) for v in values]


def _outdir() -> str:
    return os.environ.get(ENV_OUTDIR, ".")


def _resolve_out(args, suffix: str = ".csv") -> str:
    if args.out:
        return args.out
    return os.path.join(_outdir(), args.experiment + suffix)


def _sweep_outs(args, tags: list[str]) -> list[str]:
    """Variant of _resolve_out for subcommands that write one file per sweep
    value; each tag lands before the extension.  Two values with one tag
    would overwrite one file, so they raise before anything runs."""
    stem, ext = os.path.splitext(_resolve_out(args))
    paths = [f"{stem}_{tag}{ext or '.csv'}" for tag in tags]
    for i, path in enumerate(paths):
        if path in paths[:i]:
            raise ValueError(f"two sweep values write {path}")
    return paths


def _metadata(args) -> dict:
    meta: dict = {"tool": "barrierchain", "version": __version__, "experiment": args.experiment}
    for key in sorted(vars(args)):
        if key in _UNLOGGED or key.startswith("_"):
            continue
        meta[key] = getattr(args, key)
    return meta


def _emit(args, columns, path: str | None = None, **extra) -> str:
    """Write columns as CSV under the run's metadata followed by the ``extra``
    header lines; ``path`` defaults to the run's output path.  Returns the path."""
    path = path or _resolve_out(args)
    write_csv(path, columns, {**_metadata(args), **extra})
    return path


def _write_json(path: str, args, payload: dict) -> None:
    body = {"config": _metadata(args), **payload}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(body, indent=2, sort_keys=True, default=float) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the list of files written


def _cmd_spectrum(args) -> list[str]:
    spec = ChainSpec(args.n)
    omegas = np.linspace(args.omega_min, args.omega_max, args.steps)
    col_omega, col_k, col_lam, col_neg = [], [], [], []
    for omega in omegas:
        lam = decompose(spec, barrier_profile(spec, omega)).eigenvalues
        col_omega.append(np.full(spec.n_sites, omega))
        col_k.append(np.arange(1, spec.n_sites + 1))
        col_lam.append(lam)
        # spectrum of the sign-flipped field profile (particle-hole partner)
        col_neg.append(-lam[::-1])
    columns = {
        "omega": np.concatenate(col_omega),
        "k": np.concatenate(col_k),
        "lambda": np.concatenate(col_lam),
        "lambda_flipped": np.concatenate(col_neg),
    }
    return [_emit(args, columns, units_energy="J")]


def _cmd_ipr(args) -> list[str]:
    if args.omega_min <= 0:
        raise ValueError("ipr sweep needs omega_min > 0 (zero field has no barrier states)")
    spec = ChainSpec(args.n)
    omegas = np.linspace(args.omega_min, args.omega_max, args.steps)
    rows: dict[str, list] = {"omega": [], "role": [], "k": [], "lambda": [], "ipr": []}
    for omega in omegas:
        profile = barrier_profile(spec, omega)
        decomp = decompose(spec, profile)
        report = localization_report(decomp, profile)
        tracked = [("barrier", k) for k in report.barrier_pair]
        tracked += [("end", k) for k in report.bilocalized_pair]
        for role, k in tracked:
            rows["omega"].append(omega)
            rows["role"].append(role)
            rows["k"].append(k + 1)
            rows["lambda"].append(decomp.eigenvalues[k])
            rows["ipr"].append(report.ipr_per_state[k])
    return [_emit(args, rows, units_energy="J")]


def _cmd_transfer(args) -> list[str]:
    spec = ChainSpec(args.n)
    decomp = decompose(spec, barrier_profile(spec, args.omega))
    times = np.linspace(0.0, args.big_t, args.points)
    return [_emit(args, transfer_series(decomp, times), units_time="1/J")]


def _cmd_maxfid(args) -> list[str]:
    omegas = np.linspace(args.omega_min, args.omega_max, args.omega_steps)
    rows: dict[str, list] = {"n": [], "omega": [], "t_star": [], "max_avg_fidelity": []}
    for n in range(args.n_min, args.n_max + 1, args.n_step):
        spec = ChainSpec(n)
        decomps = [decompose(spec, barrier_profile(spec, omega)) for omega in omegas]
        levels = np.array([d.eigenvalues for d in decomps]).reshape(-1, n)
        weights = np.array([transition_weights(d, 1, n) for d in decomps]).reshape(-1, 1, n)
        # one stacked peak search per chain size
        t_star, abs_f = peak_search(levels, weights, (0.0, args.big_t))
        rows["n"].extend([n] * len(omegas))
        rows["omega"].extend(omegas)
        rows["t_star"].extend(t_star.tolist())
        rows["max_avg_fidelity"].extend(average_fidelity(abs_f).tolist())
    return [_emit(args, rows, units_time="1/J")]


def _cmd_scaling(args) -> list[str]:
    if args.omega_min <= 0:
        raise ValueError("scaling sweep needs omega_min > 0")
    omegas = np.geomspace(args.omega_min, args.omega_max, args.steps)
    rows: dict[str, list] = {"n": [], "omega": [], "gap": [], "t_max": []}
    for n in args.n_list:
        spec = ChainSpec(n)
        for omega in omegas:
            report = barrier_report(spec, omega)
            rows["n"].append(n)
            rows["omega"].append(omega)
            rows["gap"].append(report.gap)
            rows["t_max"].append(rabi_transfer_time(report))
    return [_emit(args, rows, units_time="1/J", units_energy="J")]


def _ensemble_rows(args, rows: dict, spec: ChainSpec, omega: float, window, models: list[DisorderModel]) -> None:
    """Run the ensembles of ``models`` at one omega as one stack and append
    each one's omega, mean, stderr, n_samples and seed to ``rows``.  The
    caller works out the window, once per omega."""
    results = monte_carlo(args.metric, models, spec, omega, window, n_samples=args.n_samples, seed=args.seed)
    for result in results:
        rows["omega"].append(omega)
        rows["mean"].append(result.mean_metric)
        rows["stderr"].append(result.std_error)
        rows["n_samples"].append(result.n_samples)
        rows["seed"].append(result.seed)


def _cmd_disorder(args) -> list[str]:
    spec = ChainSpec(args.n)
    rows: dict[str, list] = {
        "b": [], "omega": [], "mean": [], "stderr": [], "n_samples": [], "seed": [],
    }
    for omega in args.omega_list:
        window = default_window(spec, omega, args.window_factor)
        models = [DisorderModel(BULK_UNIFORM, b) for b in args.b_list]
        rows["b"].extend(args.b_list)
        _ensemble_rows(args, rows, spec, omega, window, models)
    return [_emit(args, rows)]


def _cmd_leakage(args) -> list[str]:
    omegas = np.linspace(args.omega_min, args.omega_max, args.steps)
    paths = _sweep_outs(args, [f"n{n}" for n in args.n_list])
    written = []
    for n, path in zip(args.n_list, paths):
        spec = ChainSpec(n)
        rows: dict[str, list] = {
            "omega": [], "mean": [], "stderr": [], "n_samples": [], "seed": [],
        }
        # the window differs per omega, so each stack holds one ensemble
        for omega in omegas:
            window = default_window(spec, omega, args.window_factor)
            _ensemble_rows(args, rows, spec, omega, window, [DisorderModel(BARRIER_LEAKAGE, omega)])
        written.append(_emit(args, rows, path, n=n))
    return written


def _cmd_ebit(args) -> list[str]:
    spec = ChainSpec(args.n)
    state = EbitState(args.alpha, args.beta)
    paths = _sweep_outs(args, [f"omega{omega:g}" for omega in args.omega_list])
    written = []
    for omega, path in zip(args.omega_list, paths):
        profile = ebit_barrier_profile(spec, omega)
        decomp = decompose(spec, profile)
        lo, hi = ebit_window(spec, omega, state)
        rows: dict[str, list] = {
            "t": [], "abs_p_Nm1": [], "abs_p_N": [], "concurrence": [],
        }
        for t in np.linspace(lo, hi, args.points):
            p = evolve_ebit(spec, profile, state, t, decomp)
            rows["t"].append(t)
            rows["abs_p_Nm1"].append(abs(p[-2]))
            rows["abs_p_N"].append(abs(p[-1]))
            rows["concurrence"].append(pair_concurrence(p))
        written.append(_emit(args, rows, path, units_time="1/J", omega=omega, window_lo=lo, window_hi=hi))
    return written


def _cmd_protocol(args) -> list[str]:
    spec = ChainSpec(args.n)
    closed = optimal_interval(args.n, args.k2)
    literal = two_level_interval(args.k2)
    delta_t = args.delta_t if args.delta_t is not None else closed
    optimized = None
    if args.optimize:
        seed_schedule = SwitchingSchedule(
            k1=args.k1, k2=args.k2, delta_t=delta_t, t1=args.t1,
        )
        optimized, _ = optimize_interval(spec, seed_schedule, window=args.window)
        delta_t = optimized
    schedule = SwitchingSchedule(
        k1=args.k1, k2=args.k2, delta_t=delta_t, t1=args.t1,
        smoothing_timescale=args.tau_s,
    )
    t_end = args.t_end if args.t_end is not None else schedule.t2 + args.window
    trajectory = simulate_protocol(spec, schedule, t_end=t_end, sample_dt=args.sample_dt)
    mean, drift = storage_fidelity(trajectory, min(args.window, t_end - schedule.t2))
    columns = {
        "t": trajectory.times,
        "omega2": trajectory.omega2,
        "omegaNm1": trajectory.omega_nm1,
        "abs_f": trajectory.abs_f,
        "avg_fidelity": trajectory.avg_fidelity,
    }
    csv_path = _emit(args, columns, units_time="1/J")
    json_path = os.path.splitext(csv_path)[0] + ".json"
    _write_json(
        json_path,
        args,
        {
            "closed_form_interval": closed,
            "two_level_interval": literal,
            "optimized_interval": optimized,
            "interval_used": schedule.delta_t,
            "storage_mean": mean,
            "storage_drift": drift,
            "final_avg_fidelity": trajectory.final_avg_fidelity,
            "survival_min_presend": trajectory.survival_min_presend,
            "t2": schedule.t2,
        },
    )
    return [csv_path, json_path]


def _cmd_effective(args) -> list[str]:
    rows: dict[str, list] = {"n": [], "omega": [], "gap_exact": [], "gap_effective": [], "ratio": []}
    for n in range(args.n_min, args.n_max + 1, args.n_step):
        for omega in args.omega_list:
            cmp = predicted_vs_exact_gap(n, omega)
            rows["n"].append(n)
            rows["omega"].append(omega)
            rows["gap_exact"].append(cmp.gap_exact)
            rows["gap_effective"].append(cmp.gap_effective)
            rows["ratio"].append(cmp.ratio)
    return [_emit(args, rows, units_energy="J")]


def _cmd_oracle_check(args) -> list[str]:
    rng = np.random.default_rng(args.seed)
    errors = []
    for n in range(args.n_min, args.n_max + 1):
        spec = ChainSpec(n)
        for _ in range(args.pairs):
            omega = rng.uniform(0.0, args.omega_max)
            t = rng.uniform(0.0, args.t_max)
            profile = barrier_profile(spec, omega)
            decomp = decompose(spec, profile)
            f_spectral = transition_amplitude(decomp, 1, n, t)
            f_oracle = oracle_transition_amplitude(spec, profile, 1, n, t)
            errors.append(abs(f_spectral - f_oracle))
    # np.max keeps a NaN error, where the builtin max may drop it; a NaN
    # tolerance or error fails, since worst <= tol is then False
    worst = float(np.max(errors, initial=0.0))
    checks = len(errors)
    passed = bool(worst <= args.tol)
    path = _resolve_out(args, ".json")
    _write_json(path, args, {"max_abs_error": worst, "checks": checks, "tolerance": args.tol, "pass": passed})
    if not passed:
        raise ValueError(
            f"oracle mismatch: max |f_spectral - f_oracle| = {worst:.3e} exceeds {args.tol:g}"
        )
    return [path]


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "ipr": _cmd_ipr,
    "transfer": _cmd_transfer,
    "maxfid": _cmd_maxfid,
    "scaling": _cmd_scaling,
    "disorder": _cmd_disorder,
    "leakage": _cmd_leakage,
    "ebit": _cmd_ebit,
    "protocol": _cmd_protocol,
    "effective": _cmd_effective,
    "oracle-check": _cmd_oracle_check,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value file; flags override its entries")
    sub.add_argument("--out", help="output path (default <outdir>/<experiment>.csv)")


def _add_ensemble(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n-samples", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=2024)
    sub.add_argument("--threads", type=int, default=os.cpu_count(),
                     help="accepted and ignored; ensembles run serially")
    sub.add_argument("--metric", choices=[MAX_CONCURRENCE, MAX_FIDELITY],
                     default=MAX_CONCURRENCE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrierchain",
        description="Spin-chain transfer datasets: spectra, fidelities, disorder ensembles, protocols.",
    )
    parser.add_argument("--version", action="version", version=f"barrierchain {__version__}")
    subs = parser.add_subparsers(dest="experiment", required=True)

    s = subs.add_parser("spectrum", help="eigenvalues vs barrier height")
    s.add_argument("--n", type=int, default=17)
    s.add_argument("--omega-min", type=float, default=0.0)
    s.add_argument("--omega-max", type=float, default=10.0)
    s.add_argument("--steps", type=int, default=200)
    _add_common(s)

    s = subs.add_parser("ipr", help="tracked-state localization vs barrier height")
    s.add_argument("--n", type=int, default=18)
    s.add_argument("--omega-min", type=float, default=0.5)
    s.add_argument("--omega-max", type=float, default=50.0)
    s.add_argument("--steps", type=int, default=100)
    _add_common(s)

    s = subs.add_parser("transfer", help="end-to-end transfer time series")
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--omega", type=float, default=100.0)
    s.add_argument("--T", dest="big_t", type=float, default=4000.0)
    s.add_argument("--points", type=int, default=2001)
    _add_common(s)

    s = subs.add_parser("maxfid", help="peak average fidelity over an (N, omega) grid")
    s.add_argument("--n-min", type=int, default=10)
    s.add_argument("--n-max", type=int, default=100)
    s.add_argument("--n-step", type=int, default=1)
    s.add_argument("--omega-min", type=float, default=0.0)
    s.add_argument("--omega-max", type=float, default=20.0)
    s.add_argument("--omega-steps", type=int, default=41)
    s.add_argument("--T", dest="big_t", type=float, default=4000.0)
    _add_common(s)

    s = subs.add_parser("scaling", help="Rabi time and gap vs barrier height")
    s.add_argument("--n-list", type=_int_list, default=[22, 23])
    s.add_argument("--omega-min", type=float, default=5.0)
    s.add_argument("--omega-max", type=float, default=80.0)
    s.add_argument("--steps", type=int, default=25)
    _add_common(s)

    s = subs.add_parser("disorder", help="bulk-field disorder ensemble")
    s.add_argument("--n", type=int, default=10)
    s.add_argument("--omega-list", type=_float_list, default=[20.0])
    s.add_argument("--b-list", type=_float_list, default=[0.0, 1.0, 2.0, 4.0])
    s.add_argument("--window-factor", type=float, default=3.0)
    _add_ensemble(s)
    _add_common(s)

    s = subs.add_parser("leakage", help="barrier-leakage disorder ensemble")
    s.add_argument("--n-list", type=_int_list, default=[10, 20, 30])
    s.add_argument("--omega-min", type=float, default=2.0)
    s.add_argument("--omega-max", type=float, default=20.0)
    s.add_argument("--steps", type=int, default=10)
    s.add_argument("--window-factor", type=float, default=1.2)
    _add_ensemble(s)
    _add_common(s)

    s = subs.add_parser("ebit", help="entangled-pair transport time series")
    s.add_argument("--n", type=int, default=33)
    s.add_argument("--omega-list", type=_float_list, default=[5.0, 15.0, 45.0])
    s.add_argument("--points", type=int, default=1200)
    s.add_argument("--alpha", type=float, default=0.7071067811865476)
    s.add_argument("--beta", type=float, default=-0.7071067811865476)
    _add_common(s)

    s = subs.add_parser("protocol", help="switched-field trap/store/release run")
    s.add_argument("--n", type=int, default=30)
    s.add_argument("--k1", type=float, default=60.0)
    s.add_argument("--k2", type=float, default=30.0)
    s.add_argument("--delta-t", type=float, default=None,
                   help="hold interval; default = closed-form optimum")
    s.add_argument("--t1", type=float, default=50.0)
    s.add_argument("--tau-s", type=float, default=0.0,
                   help="switch smoothing timescale; 0 = ideal steps")
    s.add_argument("--optimize", action="store_true",
                   help="numerically tune delta_t around its seed")
    s.add_argument("--window", type=float, default=500.0,
                   help="storage window after t2")
    s.add_argument("--t-end", type=float, default=None)
    s.add_argument("--sample-dt", type=float, default=0.05)
    _add_common(s)

    s = subs.add_parser("effective", help="reduced-model gap vs exact gap")
    s.add_argument("--n-min", type=int, default=6)
    s.add_argument("--n-max", type=int, default=40)
    s.add_argument("--n-step", type=int, default=1)
    s.add_argument("--omega-list", type=_float_list, default=[5.0, 10.0, 20.0])
    _add_common(s)

    s = subs.add_parser("oracle-check", help="spectral path vs full Hilbert-space oracle")
    s.add_argument("--n-min", type=int, default=4)
    s.add_argument("--n-max", type=int, default=8)
    s.add_argument("--pairs", type=int, default=10)
    s.add_argument("--omega-max", type=float, default=60.0)
    s.add_argument("--t-max", type=float, default=30.0)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--tol", type=float, default=1e-10)
    _add_common(s)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's entries are read as flags placed right
    after the subcommand, so the command line's own flags come later and win."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    with open(args.config, encoding="utf-8") as fh:
        entries = parse_config_block(fh.read())
    if "T" in entries:
        entries["big_t"] = entries.pop("T")
    declared = entries.pop("experiment", None)
    if declared is not None and declared != args.experiment:
        raise ValueError(f"config declares experiment {declared!r}, command line says {args.experiment!r}")
    at = argv.index(args.experiment) + 1
    defaults = vars(parser.parse_args(argv[:at]))
    unknown = set(entries) - set(defaults)
    if unknown:
        raise ValueError(f"config keys not understood: {sorted(unknown)}")
    flags = []
    for key, value in entries.items():
        if value is None and defaults[key] is None:
            # None asks for the flag's default, as the run headers record it
            continue
        flag = "--T" if key == "big_t" else "--" + key.replace("_", "-")
        if isinstance(value, bool) and isinstance(defaults[key], bool):
            # an on/off switch takes no value
            flags += [flag] if value else []
            continue
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        flags.append(f"{flag}={value}")
    return parser.parse_args(argv[:at] + flags + argv[at:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        written = _HANDLERS[args.experiment](args)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "argv": argv,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
