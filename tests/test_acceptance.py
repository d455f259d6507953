"""End-to-end acceptance gates, one test per numbered criterion.

Each test evaluates every clause of its criterion, prints a single
``ACCEPTANCE <k> PASS|FAIL`` line carrying the measured numbers, and then
asserts the conjunction.  Every gate must pass.  Next to gate 7, three
more tests check its ensembles' samples against the full-grid peak search,
against ensembles of other sizes and one search per sample, and against
ensembles that share their call with other models.
"""

import time

import numpy as np
from scipy.optimize import minimize_scalar

from barrierchain.chain import (
    ChainSpec,
    barrier_profile,
    build_hamiltonian,
    ebit_barrier_profile,
    uniform_profile,
)
from barrierchain.disorder import (
    BARRIER_LEAKAGE,
    BULK_UNIFORM,
    MAX_CONCURRENCE,
    DisorderModel,
    default_window,
    monte_carlo,
    sample_profile,
)
from barrierchain.ebit import EbitState, evolve_ebit, pair_concurrence
from barrierchain.metrics import (
    average_fidelity,
    ipr,
    localization_report,
    max_fidelity,
    rabi_transfer_time,
)
from barrierchain.oracle import (
    embed_amplitudes,
    evolve_with_idle_ancilla,
    external_singlet_state,
    oracle_transition_amplitude,
    reduced_state,
    wootters_concurrence,
)
from barrierchain.protocol import (
    SwitchingSchedule,
    optimal_interval,
    optimize_interval,
    simulate_protocol,
    storage_fidelity,
)
from barrierchain.spectral import (
    decompose,
    eigendecompose,
    evolve,
    evolve_many,
    site_state,
    transition_amplitude,
)

from _full_grid import full_grid_max_fidelity
from _haar import haar_qubits


def _gate(num: int, label: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in clauses)
    detail = "; ".join(text if flag else f"[FAILED] {text}" for text, flag in clauses)
    print(f"ACCEPTANCE {num} ({label}) {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"gate {num} ({label}): {detail}"


def _decompose(n: int, omega: float):
    spec = ChainSpec(n)
    profile = barrier_profile(spec, omega)
    return spec, profile, eigendecompose(build_hamiltonian(spec, profile))


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(4, 11):
        spec = ChainSpec(n)
        for _ in range(20):
            omega = rng.uniform(0.0, 60.0)
            t = rng.uniform(0.0, 30.0)
            profile = barrier_profile(spec, omega)
            decomp = eigendecompose(build_hamiltonian(spec, profile))
            f_fast = transition_amplitude(decomp, 1, n, t)
            f_full = oracle_transition_amplitude(spec, profile, 1, n, t)
            worst = max(worst, abs(abs(f_fast) - abs(f_full)))
    elapsed = time.perf_counter() - start
    _gate(1, "oracle equivalence", [
        (f"worst |f_N1| mismatch {worst:.2e} <= 1e-10", worst <= 1e-10),
        (f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0),
    ])


def test_criterion_2_concurrence_identities():
    rng = np.random.default_rng(202)
    worst_singlet = 0.0
    for n in range(4, 9):
        spec, profile, decomp = _decompose(n, rng.uniform(0.0, 20.0))
        joint = external_singlet_state(spec)
        for t in rng.uniform(0.0, 30.0, 10):
            evolved = evolve_with_idle_ancilla(spec, profile, joint, float(t))
            rho = reduced_state(evolved, (1, n + 1), n_qubits=n + 1)
            expected = abs(transition_amplitude(decomp, 1, n, float(t)))
            worst_singlet = max(worst_singlet, abs(wootters_concurrence(rho) - expected))

    spec = ChainSpec(8)
    profile = ebit_barrier_profile(spec, float(rng.uniform(2.0, 20.0)))
    state = EbitState(2.0 ** -0.5, 2.0 ** -0.5)
    worst_pair = 0.0
    for t in rng.uniform(0.0, 40.0, 10):
        p = evolve_ebit(spec, profile, state, float(t))
        rho = reduced_state(embed_amplitudes(8, p), (7, 8))
        worst_pair = max(worst_pair, abs(wootters_concurrence(rho) - pair_concurrence(p)))

    _gate(2, "concurrence identities", [
        (f"singlet Wootters vs |f_N1| worst {worst_singlet:.2e} <= 1e-10",
         worst_singlet <= 1e-10),
        (f"pair Wootters vs 2|p_Nm1 p_N| worst {worst_pair:.2e} <= 1e-10",
         worst_pair <= 1e-10),
    ])


def test_criterion_3_zero_mode_amplitude():
    worst = 0.0
    for n in (7, 17, 23):
        for omega in (0.0, 5.0, 50.0):
            _, _, decomp = _decompose(n, omega)
            k = int(np.argmin(np.abs(decomp.eigenvalues)))
            assert abs(decomp.eigenvalues[k]) < 1e-9
            target = np.sqrt(2.0 / (n + 1))
            for end in (0, -1):
                worst = max(worst, abs(abs(decomp.eigenvectors[end, k]) - target))
    _gate(3, "zero-mode amplitude", [
        (f"end amplitude vs sqrt(2/(N+1)) worst {worst:.2e} <= 1e-9", worst <= 1e-9),
    ])


def test_criterion_4_localization():
    start = time.perf_counter()
    spec, profile, decomp = _decompose(18, 50.0)
    report = localization_report(decomp, profile)
    barrier = [report.ipr_per_state[k] for k in report.barrier_pair]
    biloc = [report.ipr_per_state[k] for k in report.bilocalized_pair]
    _, _, decomp17 = _decompose(17, 50.0)
    report17 = localization_report(decomp17, barrier_profile(ChainSpec(17), 50.0))
    biloc17 = [report17.ipr_per_state[k] for k in report17.bilocalized_pair]
    elapsed = time.perf_counter() - start
    _gate(4, "localization", [
        (f"N=18 barrier IPRs {[round(v, 4) for v in barrier]} in [2, 2.05]",
         all(2.0 <= v <= 2.05 for v in barrier)),
        (f"N=18 bi-localized IPRs {[round(v, 4) for v in biloc]} in [2, 2.2]",
         all(2.0 <= v <= 2.2 for v in biloc)),
        (f"N=17 bi-localized IPRs {[round(v, 4) for v in biloc17]}, one > 2",
         any(v > 2.0 for v in biloc17)),
        (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
    ])


def test_criterion_5_parity_scaling():
    start = time.perf_counter()
    omegas = np.geomspace(5.0, 80.0, 25)
    slopes = {}
    for n in (22, 23):
        spec = ChainSpec(n)
        tmax = []
        for omega in omegas:
            profile = barrier_profile(spec, omega)
            report = localization_report(
                eigendecompose(build_hamiltonian(spec, profile)), profile
            )
            tmax.append(rabi_transfer_time(report))
        slopes[n] = float(np.polyfit(np.log(omegas), np.log(tmax), 1)[0])

    # odd-parity gap should scale like 1/(N omega); fit the constant in log
    # space and bound the relative spread
    products = []
    for n in range(11, 32, 2):
        spec = ChainSpec(n)
        for omega in (10.0, 40.0):
            profile = barrier_profile(spec, omega)
            report = localization_report(
                eigendecompose(build_hamiltonian(spec, profile)), profile
            )
            products.append(report.gap * n * omega)
    products = np.asarray(products)
    fit = float(np.exp(np.mean(np.log(products))))
    spread = float(np.max(np.abs(products - fit) / fit))
    elapsed = time.perf_counter() - start
    _gate(5, "parity scaling", [
        (f"N=22 log-log slope {slopes[22]:.4f} within 2.0 +- 0.1",
         abs(slopes[22] - 2.0) <= 0.1),
        (f"N=23 log-log slope {slopes[23]:.4f} within 1.0 +- 0.1",
         abs(slopes[23] - 1.0) <= 0.1),
        (f"odd gap*N*omega spread {spread:.3f} <= 0.15 about fit {fit:.4f}",
         spread <= 0.15),
        (f"runtime {elapsed:.1f}s < 10s", elapsed < 10.0),
    ])


# Both chains are searched over one common window.  The short odd barrier
# chains carry three near-degenerate end levels that come back into step
# slowly: at N=11 the barrier peak is 0.952 near t=3873, 0.981 near t=7911
# and 0.998 near t=13719, while the bare chain tops out at 0.970.  A window
# that ends before the barrier chain's best transfer compares truncated peaks.
ENHANCEMENT_WINDOW = (0.0, 20000.0)


def test_criterion_6_fidelity_enhancement():
    start = time.perf_counter()
    violations = []
    tightest = (np.inf, None)
    for n in range(10, 101):
        spec = ChainSpec(n)
        decomp_on = eigendecompose(build_hamiltonian(spec, barrier_profile(spec, 10.0)))
        decomp_off = eigendecompose(build_hamiltonian(spec, uniform_profile(spec)))
        _, peak_on = max_fidelity(decomp_on, ENHANCEMENT_WINDOW)
        _, peak_off = max_fidelity(decomp_off, ENHANCEMENT_WINDOW)
        margin = peak_on - peak_off
        if margin <= 0.0:
            violations.append((n, round(margin, 6)))
        if margin < tightest[0]:
            tightest = (margin, n)

    spec = ChainSpec(100)
    profile = barrier_profile(spec, 100.0)
    decomp = eigendecompose(build_hamiltonian(spec, profile))
    report = localization_report(decomp, profile)
    t_star, peak = max_fidelity(decomp, (0.0, 1.2 * rabi_transfer_time(report)))
    elapsed = time.perf_counter() - start
    _gate(6, "fidelity enhancement", [
        (f"omega=10 beats omega=0 for every N in 10..100 over t in "
         f"[0, {ENHANCEMENT_WINDOW[1]:g}] (violations {violations or 'none'}, tightest margin "
         f"{tightest[0]:+.4f} at N={tightest[1]})", not violations),
        (f"N=100 omega=100 peak {peak:.6f} >= 0.99", peak >= 0.99),
        (f"peak regression |{peak:.15f} - 0.999886354690617| <= 1e-9",
         abs(peak - 0.999886354690617) <= 1e-9),
        (f"peak time {t_star:.3f} within 0.5 of 61106.056",
         abs(t_star - 61106.055545) <= 0.5),
        (f"runtime {elapsed:.1f}s < 120s", elapsed < 120.0),
    ])


# Half-width of the bulk disorder the Rabi channel must tolerate.  The
# tolerable detuning is set by the hopping and the tunnelling gap, not by
# omega: at b = omega/10 = 2 the window-free bound sum_k |a_1k a_Nk| on |f|
# averages 0.234 over these samples, so no peak search can reach the clean
# value there.  At b = 0.2 the bound averages 0.965.
TOLERATED_DISORDER = 0.2


def test_criterion_7_disorder_robustness():
    start = time.perf_counter()
    spec = ChainSpec(10)
    omega = 20.0
    window = default_window(spec, omega)
    strengths = (0.0, TOLERATED_DISORDER, 1.0, 2.0)
    models = [DisorderModel(BULK_UNIFORM, b) for b in strengths]
    runs = dict(zip(strengths, monte_carlo(
        MAX_CONCURRENCE, models, spec, omega, window, n_samples=1000, seed=2024,
    )))
    rerun = dict(zip(strengths, monte_carlo(
        MAX_CONCURRENCE, models, spec, omega, window, n_samples=1000, seed=2024,
    )))
    means = {b: runs[b].mean_metric for b in runs}
    closeness = abs(means[TOLERATED_DISORDER] - means[0.0])
    ordered = all(
        means[hi] <= means[lo] + 2.0 * float(np.hypot(runs[lo].std_error, runs[hi].std_error))
        for lo, hi in zip(strengths, strengths[1:])
    )
    identical = bool(np.array_equal(runs[2.0].per_sample, rerun[2.0].per_sample))
    elapsed = time.perf_counter() - start
    _gate(7, "disorder robustness", [
        (f"mean C at b={TOLERATED_DISORDER:g} ({means[TOLERATED_DISORDER]:.4f}) "
         f"within 0.05 of b=0 ({means[0.0]:.4f}); gap {closeness:.4f}", closeness <= 0.05),
        (f"means non-increasing in b up to 2*stderr {sorted(means.items())}", ordered),
        ("same-seed rerun bit-identical", identical),
        (f"runtime {elapsed:.1f}s < 120s", elapsed < 120.0),
    ])


def test_criterion_7_samples_match_the_full_grid_search():
    """Gate 7's settings: the pruned peak search gives every sample the bits
    the full-grid scan gives, at each strength whose ensemble the gate
    compares."""
    spec = ChainSpec(10)
    omega = 20.0
    window = default_window(spec, omega)
    base = barrier_profile(spec, omega)
    t_max = rabi_transfer_time(localization_report(decompose(spec, base), base))
    strengths = (0.0, TOLERATED_DISORDER, 2.0)
    models = [DisorderModel(BULK_UNIFORM, b) for b in strengths]
    runs = monte_carlo(MAX_CONCURRENCE, models, spec, omega, window, n_samples=100, seed=2024)
    for b, model, run in zip(strengths, models, runs):
        reference = np.empty(100)
        for i in range(100):
            decomp = decompose(spec, sample_profile(model, base, i, 2024))
            t_star, _ = full_grid_max_fidelity(decomp, window, t_max=t_max)
            reference[i] = abs(transition_amplitude(decomp, 1, 10, t_star))
        assert np.array_equal(run.per_sample, reference), b


def test_criterion_7_samples_do_not_depend_on_batch_size():
    """Gate 7's b = 2 ensemble: its 1000 samples share one stacked peak
    search, yet ensembles of 1, 7 and 100 samples give the matching prefix
    bit for bit, and so does one ``max_fidelity`` search per sample."""
    spec = ChainSpec(10)
    omega = 20.0
    window = default_window(spec, omega)
    model = DisorderModel(BULK_UNIFORM, 2.0)

    def per_sample(n_samples):
        (run,) = monte_carlo(MAX_CONCURRENCE, [model], spec, omega, window, n_samples=n_samples, seed=2024)
        return run.per_sample

    whole = per_sample(1000)
    for size in (1, 7, 100):
        assert np.array_equal(per_sample(size), whole[:size]), size
    base = barrier_profile(spec, omega)
    t_max = rabi_transfer_time(localization_report(decompose(spec, base), base))
    one_by_one = np.empty(1000)
    for i in range(1000):
        decomp = decompose(spec, sample_profile(model, base, i, 2024))
        t_star, _ = max_fidelity(decomp, window, t_max=t_max)
        one_by_one[i] = abs(transition_amplitude(decomp, 1, 10, t_star))
    assert np.array_equal(whole, one_by_one)


def test_criterion_7_samples_do_not_depend_on_the_stack():
    """Gate 7's chain: an ensemble that shares its ``monte_carlo`` call with
    others gives every sample the bits of a call with its model alone,
    whatever the other models, their order or repeats.  The same holds for
    two leakage models stacked with a bulk one."""
    spec = ChainSpec(10)
    omega = 20.0
    window = default_window(spec, omega)

    def per_sample(models):
        runs = monte_carlo(MAX_CONCURRENCE, models, spec, omega, window, n_samples=100, seed=2024)
        assert len(runs) == len(models)
        return [run.per_sample for run in runs]

    strengths = (0.0, TOLERATED_DISORDER, 1.0, 2.0)
    alone = {b: per_sample([DisorderModel(BULK_UNIFORM, b)])[0] for b in strengths}
    for stack in (strengths, strengths[::-1], (1.0, 0.0, 1.0, 2.0, 1.0)):
        for b, samples in zip(stack, per_sample([DisorderModel(BULK_UNIFORM, b) for b in stack])):
            assert np.array_equal(samples, alone[b]), (stack, b)
    mixed = [DisorderModel(BARRIER_LEAKAGE, 20.0), DisorderModel(BULK_UNIFORM, 1.0),
             DisorderModel(BARRIER_LEAKAGE, 40.0)]
    for model, samples in zip(mixed, per_sample(mixed)):
        assert np.array_equal(samples, per_sample([model])[0]), model


def _presend_survival_floor(n: int, k1: float, t1: float) -> float:
    """Minimum over [0, t1) of |<1|exp(-iHt)|1>|^2 for the trapping stage.

    H is the drive-convention matrix of the protocol module docstring with
    omega_2 = K1 and omega_{N-1} = 0: off-diagonal -1, diagonal -K1 on site
    2.  It is built densely and diagonalized with numpy, sharing no code with
    the package; every local minimum of a 1e-3 grid is refined by bounded
    minimization.
    """
    h = -np.eye(n, k=1) - np.eye(n, k=-1)
    h[1, 1] = -k1
    w, v = np.linalg.eigh(h)
    weights = v[0] ** 2

    def survival(t):
        return np.abs(np.exp(-1j * np.multiply.outer(t, w)) @ weights) ** 2

    step = 1e-3
    grid = np.arange(0.0, t1, step)
    s = survival(grid)
    dips = np.flatnonzero((s[1:-1] <= s[:-2]) & (s[1:-1] <= s[2:])) + 1
    return min(
        minimize_scalar(
            lambda t: float(survival(t)), bounds=(grid[i] - step, grid[i] + step),
            method="bounded", options={"xatol": 1e-10},
        ).fun
        for i in dips
    )


def test_criterion_8_protocol():
    start = time.perf_counter()
    spec = ChainSpec(30)
    closed = optimal_interval(30, 30.0)
    seed_schedule = SwitchingSchedule(k1=60.0, k2=30.0, delta_t=closed, t1=50.0)
    dt_opt, _ = optimize_interval(spec, seed_schedule, window=500.0)
    steps = SwitchingSchedule(k1=60.0, k2=30.0, delta_t=dt_opt, t1=50.0)
    traj = simulate_protocol(spec, steps, t_end=steps.t2 + 500.0)
    _, drift = storage_fidelity(traj, 500.0)
    finals = []
    for tau in (0.05, 0.5, 2.0):
        sched = SwitchingSchedule(
            k1=60.0, k2=30.0, delta_t=dt_opt, t1=50.0, smoothing_timescale=tau,
        )
        finals.append(simulate_protocol(spec, sched, t_end=sched.t2 + 500.0).final_avg_fidelity)
    reference = _presend_survival_floor(spec.n_sites, steps.k1, steps.t1 - steps.t0)
    elapsed = time.perf_counter() - start
    _gate(8, "switched protocol", [
        # a sampled minimum cannot lie below the true one; 1e-12 absorbs the
        # round-off between the two eigensolvers
        (f"pre-send survival {traj.survival_min_presend:.8f} within 1e-6 above "
         f"dense reference {reference:.8f} (documented floor 0.9836)",
         -1e-12 <= traj.survival_min_presend - reference <= 1e-6),
        (f"storage drift {drift:.4f} <= 0.01 over window 500", drift <= 0.01),
        (f"final avg fidelity {traj.final_avg_fidelity:.4f} >= 0.9",
         traj.final_avg_fidelity >= 0.9),
        (f"smoothed finals rise with smoothing timescale "
         f"{[round(v, 6) for v in finals]}", finals[0] <= finals[1] <= finals[2]),
        (f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0),
    ])


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    spec = ChainSpec(12)
    profile = barrier_profile(spec, 7.0)
    decomp = eigendecompose(build_hamiltonian(spec, profile))
    psi = site_state(12, 1)

    times = rng.uniform(0.0, 50.0, 20)
    norms = np.abs([np.linalg.norm(evolve(decomp, psi, float(t))) for t in times])
    unitary = float(np.max(np.abs(norms - 1.0)))

    composed = evolve(decomp, evolve(decomp, psi, 2.3), 3.1)
    direct = evolve(decomp, psi, 5.4)
    group = float(np.max(np.abs(composed - direct)))
    back = evolve(decomp, evolve(decomp, psi, 4.2), -4.2)
    reverse = float(np.max(np.abs(back - psi)))

    # mirror symmetry: launching from either end gives reflected amplitudes
    from_left = evolve_many(decomp, site_state(12, 1), times)
    from_right = evolve_many(decomp, site_state(12, 12), times)
    mirror = float(np.max(np.abs(from_left - from_right[:, ::-1])))

    negated = eigendecompose(build_hamiltonian(spec, profile.negated()))
    ph_spectrum = float(np.max(np.abs(negated.eigenvalues + decomp.eigenvalues[::-1])))
    f_pos = np.abs([transition_amplitude(decomp, 1, 12, float(t)) for t in times])
    f_neg = np.abs([transition_amplitude(negated, 1, 12, float(t)) for t in times])
    ph_transfer = float(np.max(np.abs(f_pos - f_neg)))

    iprs = np.array([ipr(decomp.eigenvectors[:, k]) for k in range(12)])
    ipr_ok = bool(np.all(iprs >= 1.0 - 1e-12) and np.all(iprs <= 12.0 + 1e-12))

    alphas, betas = haar_qubits(100_000, 11)
    pa2, pb2 = np.abs(alphas) ** 2, np.abs(betas) ** 2
    bloch = 0.0
    for a in (0.0, 0.3, 0.7, 1.0):
        fids = pa2**2 + pa2 * pb2 * (1.0 - a**2) + pb2**2 * a**2 + 2.0 * pa2 * pb2 * a
        bloch = max(bloch, abs(float(np.mean(fids)) - average_fidelity(a)))
    elapsed = time.perf_counter() - start
    _gate(9, "property suites", [
        (f"unitarity worst {unitary:.2e} <= 1e-12", unitary <= 1e-12),
        (f"group composition worst {group:.2e} <= 1e-12", group <= 1e-12),
        (f"reversibility worst {reverse:.2e} <= 1e-12", reverse <= 1e-12),
        (f"mirror symmetry worst {mirror:.2e} <= 1e-10", mirror <= 1e-10),
        (f"particle-hole spectrum worst {ph_spectrum:.2e} <= 1e-10",
         ph_spectrum <= 1e-10),
        (f"particle-hole |f| worst {ph_transfer:.2e} <= 1e-10", ph_transfer <= 1e-10),
        (f"IPR within [1, N] (range {iprs.min():.3f}..{iprs.max():.3f})", ipr_ok),
        (f"Bloch-average Monte Carlo worst {bloch:.2e} <= 1e-3", bloch <= 1e-3),
        (f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0),
    ])
