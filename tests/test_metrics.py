import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from barrierchain import metrics

from barrierchain._csvio import format_csv
from barrierchain.chain import (
    ChainSpec,
    FieldProfile,
    SingleExcitationHamiltonian,
    barrier_profile,
    build_hamiltonian,
    uniform_profile,
)
from barrierchain.metrics import (
    _grid_argmax,
    _grid_count,
    _grid_point,
    _kept_rows,
    _median_levels,
    _product_error,
    _row_maxima,
    average_fidelity,
    bilocalized_pair_by_energy,
    golden_section,
    haar_qubits,
    ipr,
    localization_report,
    max_fidelity,
    peak_search,
    rabi_transfer_time,
    transfer_series,
)
from barrierchain.spectral import (
    SpectralDecomposition,
    eigendecompose,
    phase_tables,
    scan_block_length,
    transition_amplitude,
    transition_weights,
    weighted_amplitude,
)

from _full_grid import _golden_section, full_grid_max_fidelity, scan_amplitude
from _full_grid import full_grid_peak_search as _peak_search

SRC = Path(__file__).resolve().parents[1] / "src"


def decompose(n, omega):
    spec = ChainSpec(n)
    return eigendecompose(build_hamiltonian(spec, barrier_profile(spec, omega)))


def test_average_fidelity_anchors():
    assert average_fidelity(0.0) == pytest.approx(0.5)
    assert average_fidelity(1.0) == pytest.approx(1.0)
    assert average_fidelity(0.5) == pytest.approx(0.5 / 3.0 + 0.25 / 6.0 + 0.5)


def test_average_fidelity_range_check():
    with pytest.raises(ValueError):
        average_fidelity(1.1)
    with pytest.raises(ValueError):
        average_fidelity(-0.2)
    # tiny float excursions from the evolution are clamped, not rejected
    assert average_fidelity(1.0 + 1e-12) == pytest.approx(1.0)


def test_average_fidelity_array_is_bit_identical_to_scalar():
    x = np.array([0.8064621134539653, 0.0, 1.0, 1.0 + 1e-12])
    out = average_fidelity(x)
    assert isinstance(out, np.ndarray) and out.shape == x.shape
    assert isinstance(average_fidelity(x[0]), float)
    # the square is libm pow, as Python's **; numpy's x**2 (x*x) gives
    # 0.8772175612240944 for the first input
    assert out[0] == 0.8772175612240946
    assert out.tolist() == [0.8772175612240946, 0.5, 1.0, 1.0]
    clipped = [min(max(v, 0.0), 1.0) for v in x.tolist()]
    assert out.tolist() == [v / 3.0 + v**2 / 6.0 + 0.5 for v in clipped]
    assert out.tolist() == [average_fidelity(v) for v in x.tolist()]
    with pytest.raises(ValueError):
        average_fidelity(np.array([0.5, 1.1]))
    with pytest.raises(ValueError):
        average_fidelity(np.array([[0.5], [np.nan]]))


def test_ipr_bounds():
    assert ipr(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert ipr(np.ones(7) / np.sqrt(7)) == pytest.approx(7.0)
    assert ipr(np.array([1.0, 1.0j, 0.0])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        ipr(np.zeros(4))


def test_ipr_scale_invariance():
    vec = np.array([0.3, -0.8, 0.1, 0.5])
    assert ipr(vec) == pytest.approx(ipr(3.7 * vec))


def test_transfer_series_columns():
    decomp = decompose(6, 4.0)
    times = np.linspace(0.0, 8.0, 9)
    series = transfer_series(decomp, times)
    assert list(series) == ["t", "abs_f", "avg_fidelity", "concurrence"]
    assert np.array_equal(series["t"], times)
    # the transferred concurrence is |f| itself
    assert np.array_equal(series["concurrence"], series["abs_f"])
    assert series["avg_fidelity"].tolist() == [average_fidelity(a) for a in series["abs_f"].tolist()]
    assert np.array_equal(series["abs_f"], np.abs(transition_amplitude(decomp, 1, 6, times)))
    # each row is the single-time amplitude, up to the summation order
    for t, abs_f in zip(series["t"].tolist(), series["abs_f"].tolist()):
        assert abs_f == pytest.approx(abs(transition_amplitude(decomp, 1, 6, t)), abs=1e-12)


def test_transfer_record_concurrence_equals_abs_f():
    decomp = decompose(6, 4.0)
    row = transfer_series(decomp, [3.7])
    assert row["concurrence"][0] == row["abs_f"][0]
    assert row["avg_fidelity"][0] == pytest.approx(average_fidelity(row["abs_f"][0]))


def test_transfer_series_matches_records():
    decomp = decompose(5, 2.0)
    times = np.linspace(0.0, 8.0, 9)
    series = transfer_series(decomp, times)
    assert len(series["t"]) == 9
    for t, abs_f in zip(series["t"][::3].tolist(), series["abs_f"][::3].tolist()):
        assert abs_f == pytest.approx(abs(transition_amplitude(decomp, 1, 5, t)), abs=1e-12)


def test_records_to_csv_layout():
    decomp = decompose(5, 2.0)
    text = format_csv(transfer_series(decomp, [0.0, 1.0]), {"n": 5})
    lines = text.strip().splitlines()
    assert lines[0] == "# n = 5"
    assert lines[1] == "t,abs_f,avg_fidelity,concurrence"
    assert len(lines) == 4


def test_localization_report_identifies_pairs():
    spec = ChainSpec(18)
    profile = barrier_profile(spec, 50.0)
    report = localization_report(eigendecompose(build_hamiltonian(spec, profile)), profile)
    # barrier levels are pushed to the top of the spectrum
    assert report.barrier_pair == (16, 17)
    assert report.gap > 0
    for k in report.bilocalized_pair:
        assert report.ipr_per_state[k] == pytest.approx(2.0, abs=0.2)


def test_localization_report_needs_two_barriers():
    spec = ChainSpec(8)
    with pytest.raises(ValueError):
        localization_report(
            eigendecompose(build_hamiltonian(spec, uniform_profile(spec))),
            uniform_profile(spec),
        )


@pytest.mark.parametrize("n,omega", [(18, 50.0), (22, 30.0), (16, 12.0)])
def test_pair_selection_methods_agree(n, omega):
    spec = ChainSpec(n)
    profile = barrier_profile(spec, omega)
    decomp = eigendecompose(build_hamiltonian(spec, profile))
    report = localization_report(decomp, profile)
    assert bilocalized_pair_by_energy(decomp) == report.bilocalized_pair


def test_rabi_transfer_time():
    spec = ChainSpec(12)
    profile = barrier_profile(spec, 10.0)
    report = localization_report(eigendecompose(build_hamiltonian(spec, profile)), profile)
    assert rabi_transfer_time(report) == pytest.approx(np.pi / report.gap)


def test_golden_section_finds_quadratic_peak():
    def parabola(x):
        return -((x - 1.7) ** 2)

    peak = golden_section(parabola, 0.0, 3.0, tol=1e-6)
    assert isinstance(peak, float)
    assert peak == pytest.approx(1.7, abs=1e-5)
    assert peak == _golden_section(parabola, 0.0, 3.0, tol=1e-6)


def test_golden_section_brackets_run_in_lockstep():
    """A stack of brackets gives each entry the scalar search's bits: full
    brackets 2 steps wide, one clipped to the window (1 step wide, so it
    stops iterating earlier), and widths that finish on different
    iterations."""
    centres = np.array([1.7, 0.1, 2.95, 1.0, 1.3, 0.4])

    def stacked(x):
        return -((x - centres) ** 2) + np.sin(3.0 * x)

    def scalar(k):
        return lambda x: -((x - centres[k]) ** 2) + np.sin(3.0 * x)

    grid = np.array([1.75, 0.0, 3.0, 1.0, 1.25, 0.5])
    lo = np.maximum(0.0, grid - 0.25)
    hi = np.minimum(3.0, grid + 0.25)
    lo[3], hi[3] = 0.0, 2.0  # a wide bracket takes more iterations
    lo[5], hi[5] = 0.45, 0.45005  # already within the tolerance
    peaks = golden_section(stacked, lo, hi)
    expected = [_golden_section(scalar(k), lo[k], hi[k]) for k in range(centres.size)]
    assert peaks.tolist() == expected
    widths = hi - lo
    assert widths[1] < widths[0] < widths[3]  # clipped, full and wide brackets


def test_golden_section_cycle_check_keeps_the_bits_of_brackets_that_end():
    """At tol = 1e-15 the brackets run past the iteration count a bracket
    shrinking by inv_phi needs, so states are compared for cycles, and each
    entry still gets the scalar search's bits."""
    centres = np.array([0.1, 0.3, 0.377, 1.41, 3.2])
    lo, hi = np.floor(centres), np.floor(centres) + np.array([0.5, 0.5, 3.0, 0.5, 3.0])

    def stacked(x):
        return -((x - centres) ** 2)

    peaks = golden_section(stacked, lo, hi, tol=1e-15)
    expected = [
        _golden_section(lambda x, k=k: -((x - centres[k]) ** 2), lo[k], hi[k], tol=1e-15)
        for k in range(centres.size)
    ]
    assert peaks.tolist() == expected
    # a NaN bracket never iterates and does not disturb the others
    peaks = golden_section(stacked, np.where(centres > 1.0, np.nan, lo), hi, tol=1e-15)
    assert np.isnan(peaks[centres > 1.0]).all()
    assert peaks[centres < 1.0].tolist() == expected[:3]


def test_golden_section_cycling_bracket_keeps_its_bits_beside_wider_ones():
    """Near 6e11 floats are 1.2e-4 apart, so a bracket there cycles instead
    of ending; its cycle check starts from its own width, so it stops where
    it stops alone, beside brackets of any width."""
    base = 6e11 + np.array([0.0, 0.25, 0.5])
    centres = base + np.array([0.1234, 0.3, 0.0])

    def alone(k):
        return lambda x: np.cos(3e4 * (x - centres[k])) - (x - centres[k]) ** 2

    expected = [golden_section(alone(k), base[k], base[k] + 0.5) for k in range(base.size)]
    for wide in (1e3, 2e3, 1e6):
        lo, hi = np.append(base, 0.0), np.append(base + 0.5, wide)

        def stacked(x):
            return np.append(np.cos(3e4 * (x[:3] - centres)) - (x[:3] - centres) ** 2, -((x[3] - 3.3) ** 2))

        assert golden_section(stacked, lo, hi)[:3].tolist() == expected


_FAR_WINDOW = """
import numpy as np
from barrierchain.chain import ChainSpec, barrier_profile
from barrierchain.metrics import golden_section, peak_search
from barrierchain.spectral import decompose, transition_weights

spec = ChainSpec(10)
decomp = decompose(spec, barrier_profile(spec, 5.0))
weights = transition_weights(decomp, 1, 10)
for lo in (6e11, 4e11):
    [(t_star, value)] = peak_search([(decomp.eigenvalues[None], weights[None, None])], (lo, lo + 50.0))
    assert lo <= t_star[0] <= lo + 50.0 and 0.0 < value[0] <= 1.0, (lo, t_star, value)
# tol = 0 leaves only the cycle check to stop the search
peak = golden_section(lambda x: -((x - 1.3) ** 2), 1.0, 1.5, tol=0.0)
assert abs(peak - 1.3) < 1e-7, peak
print("done")
"""


def test_golden_section_ends_where_the_float_spacing_exceeds_tol():
    """Near t = 6e11 floats are 1.2e-4 apart, more than the 1e-4 tolerance,
    so the bracket can never get that narrow; the search used to loop for
    ever.  It runs in a child process, so a regression fails here instead of
    hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FAR_WINDOW], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "done"


def test_max_fidelity_two_site_chain():
    # N=2 has |f| = |sin t|, perfect transfer at pi/2
    spec = ChainSpec(2)
    decomp = eigendecompose(build_hamiltonian(spec, uniform_profile(spec)))
    t_star, fbar = max_fidelity(decomp, (0.0, 3.0))
    assert fbar == pytest.approx(1.0, abs=1e-9)
    assert t_star == pytest.approx(np.pi / 2.0, abs=1e-3)
    # |f| still rises at the window's end: the refinement stays inside the
    # window and falls back to the last grid point
    t_edge, f_edge = max_fidelity(decomp, (0.0, 1.0))
    assert t_edge == 1.0
    assert f_edge == pytest.approx(average_fidelity(np.sin(1.0)), abs=1e-12)


def test_max_fidelity_two_equal_peaks_resolve_deterministically():
    spec = ChainSpec(2)
    decomp = eigendecompose(build_hamiltonian(spec, uniform_profile(spec)))
    # the window holds two equal peaks, at pi/2 and 3 pi/2; the scan must
    # land on one of them and do so reproducibly
    t_star, fbar = max_fidelity(decomp, (0.0, 6.0))
    assert fbar == pytest.approx(1.0, abs=1e-9)
    assert min(abs(t_star - np.pi / 2.0), abs(t_star - 3.0 * np.pi / 2.0)) < 1e-3
    assert max_fidelity(decomp, (0.0, 6.0)) == (t_star, fbar)


def test_max_fidelity_rejects_an_empty_window():
    decomp = decompose(6, 4.0)
    with pytest.raises(ValueError):
        max_fidelity(decomp, (5.0, 5.0))


@pytest.mark.parametrize("window", [(0.0, np.nan), (np.nan, 5.0), (0.0, np.inf), (-np.inf, 5.0)])
def test_peak_search_rejects_a_non_finite_window(window):
    # NaN passes a plain hi <= lo test, and an infinite end has no grid
    decomp = decompose(6, 4.0)
    with pytest.raises(ValueError, match="finite"):
        peak_search([(decomp.eigenvalues[None], transition_weights(decomp, 1, 6)[None, None])], window)


@pytest.mark.parametrize("t_max", [0.0, -1.0, -0.0, np.nan, np.inf, -np.inf])
def test_peak_search_rejects_a_t_max_that_is_not_positive_and_finite(t_max):
    # t_max = 0 made the step 0, -1 made it negative, and NaN fell back to
    # step 0.25 unseen
    decomp = decompose(6, 4.0)
    with pytest.raises(ValueError, match="t_max"):
        peak_search([(decomp.eigenvalues[None], transition_weights(decomp, 1, 6)[None, None])], (0.0, 5.0), t_max)
    with pytest.raises(ValueError, match="t_max"):
        max_fidelity(decomp, (0.0, 5.0), t_max=t_max)


@pytest.mark.parametrize("hi", [4000.0, 20000.0])
def test_max_fidelity_matches_direct_scan(hi):
    """Gate 6's N=11, omega=10 chain: the pointwise scan picks the direct
    scan's grid argmax, and the same refinement then gives the same peak."""
    decomp = decompose(11, 10.0)
    step = 0.25
    grid = np.arange(0.0, hi + step, step)
    grid = grid[grid <= hi]
    direct = np.abs(transition_amplitude(decomp, 1, 11, grid))
    pointwise = scan_amplitude(decomp, transition_weights(decomp, 1, 11), 0.0, step, grid.size)
    assert int(np.argmax(pointwise)) == int(np.argmax(direct))

    def objective(t):
        return abs(transition_amplitude(decomp, 1, 11, t))

    t_ref, abs_f_ref = _peak_search(
        objective, lambda g: np.abs(transition_amplitude(decomp, 1, 11, g)), 0.0, hi, step
    )
    assert max_fidelity(decomp, (0.0, hi)) == (t_ref, average_fidelity(abs_f_ref))


def test_hoisted_objective_is_transition_amplitude_bit_for_bit():
    # max_fidelity computes the weights once and refines on their sum
    decomp = decompose(30, 20.0)
    weights = transition_weights(decomp, 1, 30)
    for t in (0.0, 0.25, 37.3, 1234.5678, np.float64(61106.055545), 4.0e5):
        direct = abs(transition_amplitude(decomp, 1, 30, t))
        inline = abs(complex(np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), decomp.eigenvalues)) @ weights))
        assert abs(weighted_amplitude(decomp, weights, t)) == direct == inline


def _pin_chain():
    spec = ChainSpec(100)
    profile = barrier_profile(spec, 100.0)
    decomp = eigendecompose(build_hamiltonian(spec, profile))
    return decomp, (0.0, 1.2 * rabi_transfer_time(localization_report(decomp, profile)))


def test_pruned_search_reproduces_gate_6_pins():
    decomp, window = _pin_chain()
    t_star, peak = max_fidelity(decomp, window)
    assert (t_star, peak) == full_grid_max_fidelity(decomp, window)
    assert abs(peak - 0.999886354690617) <= 1e-9
    assert abs(t_star - 61106.055545) <= 0.5
    weights = transition_weights(decomp, 1, 100)
    count = _grid_count(*window, 0.25)
    rows = _kept_rows(decomp.eigenvalues[None], weights[None, None], window[0], 0.25, count, scan_block_length(count))
    assert rows[0].size < count ** 0.5 / 2


@pytest.mark.parametrize("n", [10, 55, 100])
@pytest.mark.parametrize("omega", [0.0, 4.0, 20.0])
def test_pruned_max_fidelity_is_bit_identical_to_full_grid(n, omega):
    """The maxfid config's chains and window, with and without the Rabi-time step."""
    decomp = decompose(n, omega)
    assert max_fidelity(decomp, (0.0, 4000.0)) == full_grid_max_fidelity(decomp, (0.0, 4000.0))
    if omega > 0.0:
        t_max = rabi_transfer_time(localization_report(decomp, barrier_profile(ChainSpec(n), omega)))
        window = (0.5 * t_max, 2.5 * t_max)
        assert max_fidelity(decomp, window, t_max=t_max) == full_grid_max_fidelity(decomp, window, t_max=t_max)


def _slow_pair(j):
    """N = 2 with hop -J, |f| = |sin(J t)|: a slope bound J and no other structure."""
    decomp = eigendecompose(SingleExcitationHamiltonian(np.zeros(2), [-j]))
    return decomp, transition_weights(decomp, 1, 2)


def _kept_rows_of(decomp, weights, hi):
    """The kept rows of a one-chain search over (0, hi), and the row count."""
    count = _grid_count(0.0, hi, 0.25)
    block = scan_block_length(count)
    (rows,) = _kept_rows(decomp.eigenvalues[None], weights[None, None], 0.0, 0.25, count, block)
    return rows, -(-count // block)


def test_single_kept_block_gives_the_full_grid_bits():
    """|sin(1e-4 t)| still rises at the window's end, so only the last cells
    can hold the maximum and they all sit in the last block.  That lone
    kept block is scanned alone and the search still gives the full grid's
    bits."""
    decomp, weights = _slow_pair(1e-4)
    hi = (110 * 110 - 1) * 0.25  # the last of 110 blocks is full
    rows, n_rows = _kept_rows_of(decomp, weights, hi)
    assert n_rows == 110
    assert rows.tolist() == [109]
    t_star, fbar = max_fidelity(decomp, (0.0, hi))
    assert (t_star, fbar) == full_grid_max_fidelity(decomp, (0.0, hi))
    assert t_star == hi  # the peak is the last grid point


def test_two_near_equal_peaks_in_separate_cells():
    # |sin(0.01 t)| peaks at 157.08 and 471.24; round-off decides between them
    decomp, weights = _slow_pair(0.01)
    rows, n_rows = _kept_rows_of(decomp, weights, 600.0)
    assert np.any(np.diff(rows) > 1) and rows.size < n_rows
    t_star, fbar = max_fidelity(decomp, (0.0, 600.0))
    assert (t_star, fbar) == full_grid_max_fidelity(decomp, (0.0, 600.0))
    assert min(abs(t_star - 50.0 * np.pi), abs(t_star - 150.0 * np.pi)) < 1e-3


@pytest.mark.parametrize("window", [(0.0, 100.0), (3.0, 900.0)])
def test_peak_search_takes_any_weights(window):
    """The return amplitude |f_11| = |cos(0.01 t)|: its peak is the first
    grid point over [0, 100], and the window [3, 900] starts off the origin."""
    decomp, _ = _slow_pair(0.01)
    weights = transition_weights(decomp, 1, 1)
    lo, hi = window

    def objective(t):
        return abs(weighted_amplitude(decomp, weights, t))

    expected = _peak_search(
        objective, lambda g: scan_amplitude(decomp, weights, lo, 0.25, g.size), lo, hi, 0.25
    )

    levels, stack = decomp.eigenvalues[None], weights[None, None]
    [(t_star, value)] = peak_search([(levels, stack)], window)
    assert (t_star.tolist(), value.tolist()) == ([expected[0]], [expected[1]])
    count = _grid_count(lo, hi, 0.25)
    block = scan_block_length(count)
    (rows,) = _kept_rows(levels, stack, lo, 0.25, count, block)
    assert rows.size < -(-count // block)
    with pytest.raises(ValueError):
        peak_search([(levels, stack)], (hi, hi))


@pytest.mark.parametrize(
    "gap, second, phase, hi",
    [(1.48, 0.16, 2.95, 100.0), (1.391, 0.22, 2.46, 50.0), (1.517, 0.23, 3.62, 200.0)],
)
def test_two_level_beat_keeps_the_peak_cell(gap, second, phase, hi):
    """|a| = |(1 - s) + s exp(i (phase - gap t))| beats with a period near one
    coarse cell, so the coarse points can miss the peaks by far: the grid
    maximum's cell sits more than half the reach below the coarse maximum.
    A search that took half the slope bound would drop its row and return
    another grid point's peak."""
    levels = np.array([0.0, gap])
    weights = np.array([1.0 - second, second * np.exp(1j * phase)])
    decomp = SpectralDecomposition(levels, np.eye(2))

    def objective(t):
        return abs(weighted_amplitude(decomp, weights, t))

    expected = _peak_search(
        objective, lambda g: scan_amplitude(decomp, weights, 0.0, 0.25, g.size), 0.0, hi, 0.25
    )
    [(t_star, value)] = peak_search([(levels[None], weights[None, None])], (0.0, hi))
    assert (t_star[0], value[0]) == expected


@pytest.mark.parametrize("lo, stride, count", [(0.0, 0.25, 16001), (211.3, 0.25, 30254), (211.3, 4.0, 1892)])
def test_product_error_bounds_both_passes(lo, stride, count):
    """The values both passes compare, prod_f |a_f| from the approximate
    tables, lie within ``_product_error`` of the pointwise evaluator's
    values on random and barrier chains, N 4..100, with one factor (|f|)
    and two (the pair concurrence): fine grids of 16k and 30k points, and
    the coarse grid of a 30k-point search (stride 16 steps), past the
    origin."""
    block = scan_block_length(count)
    every = np.arange(-(-count // block))
    for decomp, weights in _bound_chains():
        tables = phase_tables(decomp.eigenvalues[None], lo, (lo + stride) - lo, block, every.size)
        approx = np.abs(tables.scan(weights, every)).prod(axis=0).reshape(-1)[:count]
        pointwise = scan_amplitude(decomp, weights, lo, stride, count)
        error = _product_error(tables.bound(weights)[None], np.abs(weights).sum(axis=1)[None])[0]
        assert np.max(np.abs(approx - pointwise)) <= error < 1e-9


@pytest.mark.parametrize("n, omega, t_max", [(30, 20.0, 12.3456789), (55, 10.0, 12.3456789)])
def test_fine_pass_tables_bound_the_pointwise_values_off_the_origin(monkeypatch, n, omega, t_max):
    """Over (5000, 5000 + 20 t_max) at the step t_max / 200, numpy's grid
    spacing (lo + step) - lo is not the step, and the grid times drift from
    lo + j step by up to about j u lo, several times the tables' bound on
    these chains.  The tables the fine pass scans, built at the spacing,
    still lie within their bound of the pointwise value at every grid time,
    and the search gives the full grid's bits."""
    built = []

    def recording(*args):
        built.append((args, phase_tables(*args)))
        return built[-1][1]

    monkeypatch.setattr(metrics, "phase_tables", recording)
    decomp = decompose(n, omega)
    weights = transition_weights(decomp, 1, n)[None]
    lo, hi, step = 5000.0, 5000.0 + 20.0 * t_max, t_max / 200.0
    assert (lo + step) - lo != step
    peak_search([(decomp.eigenvalues[None], weights[None])], (lo, hi), t_max)
    count = _grid_count(lo, hi, step)
    block = scan_block_length(count)
    (tables,) = [tables for args, tables in built if args[3] == block]
    approx = np.abs(tables.scan(weights, np.arange(-(-count // block)))[0]).reshape(-1)[:count]
    error = _product_error(tables.bound(weights)[None], np.abs(weights).sum(axis=1)[None])[0]
    assert np.max(np.abs(approx - scan_amplitude(decomp, weights, lo, step, count))) <= error
    assert max_fidelity(decomp, (lo, hi), t_max=t_max) == full_grid_max_fidelity(decomp, (lo, hi), t_max=t_max)


def _beat(gap, phase, second=0.3):
    """|a| = |(1 - s) + s exp(i (phase - gap t))|, peaks of 1 at gap t = phase mod 2 pi."""
    levels = np.array([0.0, gap])
    weights = np.array([1.0 - second, second * np.exp(1j * phase)])
    return SpectralDecomposition(levels, np.eye(2)), weights


def _candidates(monkeypatch):
    """Record how many points each ``_pointwise_product`` call evaluates."""
    calls = []
    original = metrics._pointwise_product

    def counting(levels, *args):
        calls.append(levels.shape[0])
        return original(levels, *args)

    monkeypatch.setattr(metrics, "_pointwise_product", counting)
    return calls


@pytest.mark.parametrize(
    "lo, count, tie",
    [(0.1, 1001, None), (0.0, 2150, 20 * 47 + 44), (0.0, 2150, 20 * 47 + 39), (0.0, 2150, 2148)],
    ids=["twin-peaks", "last-column-group", "across-groups", "last-partial-row"],
)
def test_candidate_recompute_matches_the_full_grid_on_near_ties(monkeypatch, lo, count, tie):
    """Grid points whose values tie up to round-off are all candidates, and
    the pointwise recompute picks the full scan's argmax and value.

    twin-peaks: a period of exactly 100 puts the grid points 0.1, 100.1 and
    200.1, in different rows, the same distance past a peak, so their
    values are equal but for round-off (and at lo = 0.1 the grid's spacing
    differs from its step).  The others put one peak midway between grid
    points ``tie`` and ``tie`` + 1 of a 47-column table: columns 44 and 45
    of a row, columns 39 and 40 of it, and the grid's last two points (the
    last row holds 35 of its 47 columns)."""
    calls = _candidates(monkeypatch)
    step = 0.25
    hi = lo + (count - 1) * step
    if tie is None:
        gap, phase = 2.0 * np.pi / 100.0, 0.0
    else:
        gap = 2.0 * np.pi / 1000.0
        phase = gap * (lo + (tie + 0.5) * step)
    decomp, weights = _beat(gap, phase)
    block = scan_block_length(count)
    assert _grid_count(lo, hi, step) == count and (tie is None or block == 47)

    values = scan_amplitude(decomp, weights, lo, step, count)
    best = int(np.argmax(values))
    levels, stack = decomp.eigenvalues[None], weights[None, None]
    (kept,) = _kept_rows(levels, stack, lo, step, count, block)
    times, grid_values = _grid_argmax(levels, stack, [kept], lo, step, count, block)
    assert (times[0], grid_values[0]) == (_grid_point(lo, step, best), values[best])
    assert calls[-1] >= 2
    if tie is not None:
        assert best in (tie, tie + 1) and abs(values[tie] - values[tie + 1]) < 1e-15

    def objective(t):
        return abs(weighted_amplitude(decomp, weights, t))

    expected = _peak_search(objective, lambda g: values, lo, hi, step)
    [(t_star, value)] = peak_search([(levels, stack)], (lo, hi))
    assert (t_star[0], value[0]) == expected

def test_peak_values_are_the_weighted_sums_at_t_star():
    """A stack of F = 1 chains: each returned value is |weighted_amplitude|
    at its own t*, bit for bit, with and without the Rabi-time step."""
    decomps = [decompose(10, omega) for omega in (0.0, 4.0, 20.0)]
    levels = np.array([d.eigenvalues for d in decomps])
    weights = np.array([transition_weights(d, 1, 10) for d in decomps])[:, None, :]
    for t_max in (None, 30.0):
        [(t_star, value)] = peak_search([(levels, weights)], (0.0, 400.0), t_max)
        for decomp, w, t, v in zip(decomps, weights, t_star, value):
            assert v == abs(weighted_amplitude(decomp, w[0], t))


def test_one_call_over_several_stacks_keeps_each_stacks_bits():
    """Stacks of different sizes in one call, one of them empty and one a
    two-factor stack, share the window and one lockstep refinement; every
    stack gets, bit for bit, what a call with it alone returns, and the
    single-chain stacks what ``max_fidelity`` returns."""
    stacks = []
    for n in (10, 25, 40):
        decomps = [decompose(n, omega) for omega in (0.0, 4.0, 20.0)]
        levels = np.array([d.eigenvalues for d in decomps])
        stacks.append((levels, np.array([transition_weights(d, 1, n) for d in decomps])[:, None, :]))
    stacks.insert(1, (np.empty((0, 7)), np.empty((0, 1, 7))))
    pair = decompose(12, 6.0)
    vectors = pair.eigenvectors
    stacks.append((pair.eigenvalues[None], np.array([[vectors[-2] * vectors[0], vectors[-1] * vectors[0]]])))
    for t_max in (None, 40.0):
        together = peak_search(stacks, (0.0, 300.0), t_max)
        assert len(together) == len(stacks)
        for stack, (t_star, value) in zip(stacks, together):
            [(alone_t, alone_value)] = peak_search([stack], (0.0, 300.0), t_max)
            assert t_star.tolist() == alone_t.tolist() and value.tolist() == alone_value.tolist()
    assert peak_search([], (0.0, 300.0)) == []
    t_star, abs_f = peak_search(stacks, (0.0, 300.0))[2]
    decomp = decompose(25, 4.0)
    assert max_fidelity(decomp, (0.0, 300.0)) == (t_star[1], average_fidelity(abs_f[1]))


def _slope(levels, magnitudes, centre):
    """L(c) = sum_k |w_k| |lambda_k - c|, the slope bound of |a| about c."""
    return float(magnitudes @ np.abs(levels - centre))


def _bound_chains():
    """Random-field and barrier chains, N 4..100, each with one factor (the
    transfer weights) and two (the pair weights of a random start on sites 1
    and 2)."""
    rng = np.random.default_rng(16)
    for n in (4, 9, 30, 100):
        fields = [rng.uniform(-3.0, 3.0, n), barrier_profile(ChainSpec(n), 25.0).local_fields]
        for diagonal in fields:
            decomp = eigendecompose(SingleExcitationHamiltonian(diagonal, -np.ones(n - 1)))
            v = decomp.eigenvectors
            start = v[0] * rng.normal() + v[1] * (rng.normal() + 1j * rng.normal())
            yield decomp, transition_weights(decomp, 1, n)[None]
            yield decomp, np.stack([v[-2] * start, v[-1] * start])


def test_shifted_slope_bound_is_sound_and_minimal():
    """| |a(t + d)| - |a(t)| | <= L(c) d for every factor on a fine grid,
    with c the weighted median level, and L(c) is no larger than the
    unshifted L(0) nor than L at any level."""
    step = 1e-3
    times = np.arange(0.0, 10.0, step)
    for decomp, weights in _bound_chains():
        levels = decomp.eigenvalues
        magnitudes = np.abs(weights)
        centres = _median_levels(levels[None], magnitudes[None])[0]
        table = np.exp(-1j * np.multiply.outer(times, levels))
        for w, m, c in zip(weights, magnitudes, centres):
            bound = _slope(levels, m, c)
            assert bound <= _slope(levels, m, 0.0)
            assert bound <= min(_slope(levels, m, x) for x in levels) * (1.0 + 1e-12)
            change = np.abs(np.diff(np.abs(table @ w)))
            assert change.max() <= bound * step + 1e-12


def _mixed_stack():
    """N = 10 transfer chains: omega = 0 (too loose a bound to prune at step
    0.25), barrier chains that prune, and one chain twice."""
    decomps = [decompose(10, omega) for omega in (0.0, 4.0, 20.0, 4.0, 10.0)]
    levels = np.array([d.eigenvalues for d in decomps])
    weights = np.array([transition_weights(d, 1, 10) for d in decomps])[:, None, :]
    return decomps, levels, weights


@pytest.mark.parametrize("entries", [None, 1])
def test_stacked_kept_rows_are_each_chains_own(monkeypatch, entries):
    """Each chain of a mixed stack keeps the rows it keeps as a stack of
    one, whether the coarse pass takes the stack whole or one chain per
    slice, and the stacked search gives the full-grid bits."""
    if entries is not None:
        monkeypatch.setattr(metrics, "_COARSE_ENTRIES", entries)
    decomps, levels, weights = _mixed_stack()
    window = (0.0, 3000.0)
    count = _grid_count(*window, 0.25)
    block = scan_block_length(count)
    stacked = _kept_rows(levels, weights, 0.0, 0.25, count, block)
    alone = [_kept_rows(levels[s : s + 1], weights[s : s + 1], 0.0, 0.25, count, block)[0] for s in range(5)]
    assert [rows.tolist() for rows in stacked] == [rows.tolist() for rows in alone]
    n_rows = -(-count // block)
    assert stacked[0].tolist() == list(range(n_rows))
    assert all(rows.size < n_rows for rows in stacked[1:])
    [(t_star, abs_f)] = peak_search([(levels, weights)], window)
    for decomp, t, value in zip(decomps, t_star.tolist(), abs_f.tolist()):
        assert (t, average_fidelity(value)) == full_grid_max_fidelity(decomp, window)


def test_coarse_pass_memory_is_bounded_by_the_slice():
    # gate 7's grid: 1000 N = 10 chains over 30,254 points; the stack's
    # whole coarse product would be 1000 x 1,936 complex entries, 31 MB
    rng = np.random.default_rng(7)
    base = barrier_profile(ChainSpec(10), 20.0).local_fields
    decomps = [
        eigendecompose(SingleExcitationHamiltonian(base + np.r_[0, 0, rng.uniform(-2, 2, 6), 0, 0], -np.ones(9)))
        for _ in range(1000)
    ]
    levels = np.array([d.eigenvalues for d in decomps])
    weights = np.array([transition_weights(d, 1, 10) for d in decomps])[:, None, :]
    count = _grid_count(0.0, 7563.39, 0.25)
    block = scan_block_length(count)
    tracemalloc.start()
    try:
        kept = _kept_rows(levels, weights, 0.0, 0.25, count, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_coarse = -(-(count - 1) // 16) + 1
    whole = levels.shape[0] * scan_block_length(n_coarse) ** 2 * np.dtype(complex).itemsize
    assert count == 30254 and whole > 30e6
    assert sum(rows.size < block for rows in kept) > 900
    assert peak < 4 * metrics._COARSE_ENTRIES * np.dtype(complex).itemsize < whole / 2


def _cells_meeting_rows(count, block):
    """(cells, rows) booleans: cell c, grid points 16c..min(16(c+1), count-1),
    meets row r, grid points rB..min((r+1)B, count)-1, when the two ranges
    share a point."""
    n_rows = -(-count // block)
    n_cells = -(-(count - 1) // 16)
    cell_first = 16 * np.arange(n_cells)
    cell_last = np.minimum(cell_first + 16, count - 1)
    row_first = block * np.arange(n_rows)
    row_last = np.minimum(row_first + block, count) - 1
    return (cell_first[:, None] <= row_last) & (row_first <= cell_last[:, None])


def _cell_by_cell_row_maxima(coarse, count, block):
    """Per row, the largest max(coarse[c], coarse[c+1]) over the cells c
    that meet it, tested cell by cell."""
    meets = _cells_meeting_rows(count, block)
    cell = np.maximum(coarse[:, :-1], coarse[:, 1:])
    return np.where(meets[None], cell[:, :, None], -np.inf).max(axis=1)


@pytest.mark.parametrize("count", [2, 17, 100, 150, 224, 225, 226, 1000, 4097, 30254])
def test_row_maxima_keep_the_rows_of_the_cell_by_cell_rule(count):
    """Each row's largest coarse value equals a cell-by-cell reference, on
    grids under 225 points (block < 16, where one cell spans several rows),
    with a full or a partial last row; and since rounding is monotone,
    adding reach and margin to a row's maximum keeps exactly the rows whose
    cells' own bounds (max of the two ends + reach + margin, the per-cell
    rule) reach the floor, ties included."""
    rng = np.random.default_rng(count)
    block = scan_block_length(count)
    n_coarse = -(-(count - 1) // 16) + 1
    coarse = rng.random((4, n_coarse))
    maxima = _row_maxima(coarse, count, block)
    assert maxima.shape == (4, -(-count // block))
    assert np.array_equal(maxima, _cell_by_cell_row_maxima(coarse, count, block))
    reach, margin = rng.random(4)[:, None], 1e-3 * rng.random(4)[:, None]
    cell_bound = np.maximum(coarse[:, :-1], coarse[:, 1:]) + reach + margin
    # floors at a cell's own bound (a tie), just above it, and at a quantile
    floor = np.stack([
        cell_bound[0, rng.integers(n_coarse - 1)],
        np.nextafter(cell_bound[1, rng.integers(n_coarse - 1)], np.inf),
        np.quantile(cell_bound[2], 0.9),
        np.quantile(cell_bound[3], 0.5),
    ])[:, None]
    meets = _cells_meeting_rows(count, block)
    expected = ((cell_bound >= floor)[:, :, None] & meets[None]).any(axis=1)
    assert np.array_equal(maxima + reach + margin >= floor, expected)


@pytest.mark.parametrize("count, step", [(150, 0.03), (226, 0.02), (4001, 0.01), (30254, 0.01)])
def test_kept_rows_match_a_cell_by_cell_reference_on_random_stacks(monkeypatch, count, step):
    """Random N = 4 stacks with one factor and with two (the e-bit pair
    search's F = 2) keep the rows a cell-by-cell row map keeps, on grids
    under 225 points and over, and some of their chains prune."""
    rng = np.random.default_rng(count)
    block = scan_block_length(count)
    n_rows = -(-count // block)
    for n_factors in (1, 2):
        fields = rng.uniform(-0.3, 0.3, (6, 4))
        decomps = [eigendecompose(SingleExcitationHamiltonian(row, -np.ones(3))) for row in fields]
        levels = np.array([d.eigenvalues for d in decomps])
        ends = [d.eigenvectors[-1] * d.eigenvectors[0] for d in decomps]
        weights = np.array([[w * (1.0 + 0.5 * f) for f in range(n_factors)] for w in ends]) / n_factors
        kept = _kept_rows(levels, weights, 0.0, step, count, block)
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_row_maxima", _cell_by_cell_row_maxima)
            reference = _kept_rows(levels, weights, 0.0, step, count, block)
        assert [rows.tolist() for rows in kept] == [rows.tolist() for rows in reference]
        assert sum(rows.size < n_rows for rows in kept) >= 3


def test_grid_count_and_points_match_arange():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        lo = float(rng.choice([0.0, rng.uniform(0.0, 1e4), rng.uniform(-100.0, 100.0)]))
        step = float(rng.choice([0.25, rng.uniform(1e-3, 1.0)]))
        hi = lo + float(rng.uniform(0.5 * step, 3000.0 * step))
        grid = np.arange(lo, hi + step, step)
        grid = grid[grid <= hi]
        count = _grid_count(lo, hi, step)
        assert count == grid.size
        for i in {0, 1, 2, count // 2, count - 1}:
            if i < count:
                assert _grid_point(lo, step, i) == grid[i]


def test_haar_qubits_seeded_and_normalized():
    a1, b1 = haar_qubits(400, seed=5)
    a2, b2 = haar_qubits(400, seed=5)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert np.allclose(np.abs(a1) ** 2 + np.abs(b1) ** 2, 1.0, atol=1e-12)
    # uniform on the sphere: excitation weight averages 1/2
    a, b = haar_qubits(20000, seed=6)
    assert np.mean(np.abs(b) ** 2) == pytest.approx(0.5, abs=0.02)
