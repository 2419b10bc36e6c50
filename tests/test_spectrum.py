import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcgibbs.cli import EXIT_OK, main
from qcgibbs import (
    AccuracyError,
    ContractError,
    ResourceError,
    Spectrum,
    SpectrumSource,
    TailModelError,
    box,
    box_family,
    fd_eigenvalues,
    homogeneous,
    homogeneous_family,
    oscillator_basis_eigenvalues,
    oscillator_spectrum,
    rescale,
    save_tabulated_csv,
    solve_box,
    solve_fd_1d,
    solve_oscillator_basis,
    solve_sine_basis,
    spectrum_from_csv,
    spectrum_text,
    tabulated,
    wedge_spectrum,
)
import qcgibbs.spectrum as spectrum_mod
from qcgibbs.spectrum import (
    SINE_BASIS_MAX_STATES,
    fit_tail_model,
    log_tail_bound,
    read_levels,
    sine_basis_level_cap,
)

PI2 = math.pi**2


# ---------------------------------------------------------------------------
# box levels


def test_box_1d_first_three():
    spec = solve_box(1, [1.0], count=3)
    np.testing.assert_allclose(spec.levels, [PI2 / 2, 2 * PI2, 9 * PI2 / 2], rtol=1e-14)


def test_box_1d_matches_fd_oracle():
    # oracle: Richardson-extrapolated finite differences converge to the
    # analytic values under grid refinement
    analytic = solve_box(1, [1.0], count=3).levels
    fd = solve_fd_1d(box([1.0]), 1.0, None, 3000, 3)  # the box fixes its walls
    np.testing.assert_allclose(fd.levels, analytic, rtol=1e-8)


def test_box_h_scaling():
    assert solve_box(1, [1.0], planck=2.0, count=1).levels[0] == pytest.approx(
        4 * (PI2 / 2), rel=1e-14
    )


def test_box_2d_degeneracy_brute_force():
    spec = solve_box(2, (1.0, 1.0), count=5)
    # oracle: direct enumeration of (pi^2/2)(n1^2+n2^2) over a safe window
    values = sorted(
        PI2 / 2 * (n1**2 + n2**2)
        for n1, n2 in itertools.product(range(1, 40), repeat=2)
    )[:5]
    np.testing.assert_allclose(spec.levels, values, rtol=1e-13)
    assert spec.levels[1] == spec.levels[2] == pytest.approx(5 * PI2 / 2)


def test_box_resource_cap():
    with pytest.raises(ResourceError):
        solve_box(3, (1.0, 1.0, 1.0), count=500, max_states=100)


# ---------------------------------------------------------------------------
# finite differences


def test_fd_box_ground_level():
    spec = solve_fd_1d(box([1.0]), 1.0, None, 4000, 1)
    assert abs(spec.levels[0] - PI2 / 2) < 1e-5
    assert spec.level_errors is not None and spec.level_errors[0] < 1e-4


def test_fd_second_order_convergence():
    # raw scheme error shrinks by ~4x when the grid is halved
    exact = PI2 / 2
    e_p = fd_eigenvalues(box([1.0]), points=1000, count=1)[0]
    e_2p = fd_eigenvalues(box([1.0]), points=2001, count=1)[0]
    ratio = (exact - e_p) / (exact - e_2p)
    assert 3.5 < ratio < 4.5


def test_fd_oscillator_spacing():
    spec = solve_fd_1d(homogeneous(2), 1.0, 5.2, 1500, 2)
    gap = spec.levels[1] - spec.levels[0]
    assert abs(gap - math.sqrt(2.0)) / math.sqrt(2.0) < 1e-5


def test_fd_oscillator_h_scaling():
    e1 = solve_fd_1d(homogeneous(2), 1.0, 5.2, 1500, 1).levels[0]
    e2 = solve_fd_1d(homogeneous(2), 2.0, 5.2, 1500, 1).levels[0]
    assert abs(e2 / e1 - 2.0) < 1e-4  # phi(h) = h^(2*2/(2+2)) = h


def test_fd_matches_rescaled_base():
    base = solve_fd_1d(homogeneous(2), 1.0, 9.8, 1500, 16)
    direct = solve_fd_1d(homogeneous(2), 2.0, 9.8, 1500, 16)
    scaled = rescale(base, 2.0, 1.0)
    half = 8
    np.testing.assert_allclose(
        direct.levels[:half], scaled.levels[:half], rtol=1e-4
    )


def test_fd_operator_normalization():
    # -(h^2/2m) u'' + V with (h, m) equals (h^2/m) times the unit-coefficient
    # problem -(1/2) u'' + (m/h^2) V; checked on a tabulated rescaling of x^2,
    # discretized on the same 3000 nodes of [-8, 8]
    h, m = 2.0, 3.0
    xs = np.linspace(-8.0, 8.0, 4001)
    direct = fd_eigenvalues(homogeneous(2, mass=m), h, half_width=8.0, points=3000, count=3)
    scaled_pot = tabulated(xs, (m / h**2) * xs**2, mass=1.0)
    probabilist = fd_eigenvalues(scaled_pot, 1.0, points=3000, count=3)
    # tolerance dominated by the interpolant's dx^2/6 defect, not the solver
    np.testing.assert_allclose(direct, (h**2 / m) * probabilist, rtol=1e-5)


# ---------------------------------------------------------------------------
# oscillator basis for even power laws

QUARTIC_E1 = 0.6679862591557645  # -(1/2) u'' + x^4 u, literature value


def test_basis_quartic_ground_level():
    spec = solve_oscillator_basis(homogeneous(4), count=40)
    assert spec.source is SpectrumSource.OSCILLATOR_BASIS
    assert abs(spec.levels[0] - QUARTIC_E1) / QUARTIC_E1 < 1e-12
    assert abs(spec.levels[0] - QUARTIC_E1) <= spec.level_errors[0]


def test_basis_levels_nest():
    # a leading block of the same basis: Cauchy interlacing keeps every
    # coarse level at or above the matching fine one, up to rounding
    pot = homogeneous(4)
    coarse = oscillator_basis_eigenvalues(pot, scale=0.8, size=30, count=20)
    fine = oscillator_basis_eigenvalues(pot, scale=0.8, size=40, count=20)
    assert np.all(coarse >= fine - 1e-13 * fine[-1])
    assert coarse[-1] - fine[-1] > 1e-3  # the coarse basis is not yet converged


def _wide_fd(nu: float, basis: Spectrum) -> Spectrum:
    # walls where V = 4 E_M: ModelFamily's walls (V = 1.25 E_M + 10) shift the
    # top levels by more than FD's Richardson estimate covers
    half_width = (4.0 * basis.levels[-1]) ** (1.0 / nu)
    return solve_fd_1d(homogeneous(nu), 1.0, half_width, 4000, basis.count)


def test_basis_levels_inside_fd_error_bars():
    basis = solve_oscillator_basis(homogeneous(4), count=40)
    fd = _wide_fd(4.0, basis)
    assert np.all(np.abs(basis.levels - fd.levels) <= fd.level_errors)
    assert basis.level_errors.max() < 1e-3 * fd.level_errors.max()


def _solver_basis(monkeypatch, nu: int, count: int) -> tuple[Spectrum, float, list[int]]:
    """solve_oscillator_basis with the length scale it builds its bands at
    and the basis sizes it solves, largest first."""
    built, solved = [], []
    bands, levels = spectrum_mod._oscillator_bands, spectrum_mod._banded_levels

    def recording_bands(nu, planck, mass, scale, size):
        built.append(scale)
        return bands(nu, planck, mass, scale, size)

    def recording_levels(bands, sizes, count):
        solved.extend(sizes)
        return levels(bands, sizes, count)

    monkeypatch.setattr(spectrum_mod, "_oscillator_bands", recording_bands)
    monkeypatch.setattr(spectrum_mod, "_banded_levels", recording_levels)
    spec = solve_oscillator_basis(homogeneous(nu), count=count)
    monkeypatch.undo()
    (scale,) = built
    return spec, scale, sorted(solved, reverse=True)


@pytest.mark.parametrize("count", [17, 50, 200, 583])
@pytest.mark.parametrize("nu", [4, 6, 8, 12, 20, 28])
def test_basis_levels_lie_within_their_bars_of_a_doubled_basis(monkeypatch, nu, count):
    # the phase-space sizing leaves every returned level within its bar of
    # the same basis at twice the size: the bars cover what the cut omits
    spec, scale, (n2, _) = _solver_basis(monkeypatch, nu, count)
    ref = oscillator_basis_eigenvalues(homogeneous(nu), scale=scale, size=2 * n2, count=count)
    assert np.all(np.abs(spec.levels - ref) <= spec.level_errors)


def test_quartic_verify_base_solves_the_phase_space_sizes(monkeypatch):
    # quartic-verify's grid corners (beta 0.03, h 0.35) need 583 levels; the
    # 2 M + 64 rule solved 1,230 and 922 states for them
    fam = homogeneous_family(4.0)
    count = fam.level_count(1.0, fam.lambda_min([0.03], [0.35]))
    assert count == 583
    _, _, sizes = _solver_basis(monkeypatch, 4, count)
    assert sizes == [818, 736]


def test_even_power_law_bases_come_from_the_basis():
    sextic = homogeneous_family(6.0).base_spectrum(1.0)
    assert sextic.source is SpectrumSource.OSCILLATOR_BASIS
    fd = _wide_fd(6.0, sextic)
    assert np.all(np.abs(sextic.levels - fd.levels) <= fd.level_errors)
    cubic = homogeneous_family(3.0).base_spectrum(1.0)
    assert cubic.source is SpectrumSource.FINITE_DIFFERENCE
    with pytest.raises(ValueError, match="even integer nu"):
        solve_oscillator_basis(homogeneous(3), count=10)


def test_basis_source_through_cli_and_csv(tmp_path, capsys):
    argv = ["spectrum", "--model", "homogeneous", "--nu", "4", "--count", "5"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# h=1\n# source=oscillator_basis\nn,E\n")
    path = tmp_path / "quartic.csv"
    assert main(argv + ["--output", str(path)]) == EXIT_OK
    back = spectrum_from_csv(path)
    assert back.source is SpectrumSource.OSCILLATOR_BASIS
    assert abs(back.levels[0] - QUARTIC_E1) / QUARTIC_E1 < 1e-12


# ---------------------------------------------------------------------------
# the LAPACK drivers, against scipy.linalg as the reference

EPS = np.finfo(float).eps


@pytest.fixture(params=["numpy openblas", "scipy fallback"])
def lapack_route(request, monkeypatch):
    """Each LAPACK route in turn: numpy's OpenBLAS, and scipy.linalg where
    the lookup finds no library beside numpy."""
    import qcgibbs.lapack as lapack_mod

    lapack_mod._lapacke.cache_clear()
    if request.param == "scipy fallback":
        monkeypatch.setattr(lapack_mod, "_openblas_paths", lambda: [])
    elif lapack_mod._lapacke() is None:
        pytest.skip("numpy bundles no OpenBLAS with LAPACKE here")
    yield request.param
    monkeypatch.undo()
    lapack_mod._lapacke.cache_clear()


def _recording(monkeypatch, name: str) -> list:
    """Wrap spectrum_mod.<name> so each call's arguments and result are kept."""
    calls, solve = [], getattr(spectrum_mod, name)

    def recording(*args):
        out = solve(*args)
        calls.append((tuple(np.array(a) for a in args), out))
        return out

    monkeypatch.setattr(spectrum_mod, name, recording)
    return calls


@pytest.mark.parametrize("count", [50, 583])
@pytest.mark.parametrize("nu", [4, 6, 8, 20, 28])
def test_band_solve_matches_scipy_eig_banded(monkeypatch, lapack_route, nu, count):
    from scipy.linalg import eig_banded

    calls = _recording(monkeypatch, "banded_eigenvalues")
    solve_oscillator_basis(homogeneous(nu), count=count)
    assert len(calls) == 4  # two basis sizes, two parity blocks each
    for (ab,), levels in calls:
        ref = eig_banded(ab, lower=True, eigvals_only=True)
        assert levels.shape == ref.shape
        assert np.max(np.abs(levels - ref)) <= 4 * EPS * np.max(np.abs(ref))


def test_fd_solve_matches_scipy_stebz(monkeypatch, lapack_route):
    from scipy.linalg import eigvalsh_tridiagonal

    calls = _recording(monkeypatch, "tridiagonal_lowest")
    levels = fd_eigenvalues(homogeneous(3), half_width=6.0, points=2000, count=200)
    ((diag, off, count), got), = calls
    assert diag.size == 2000 and count == 200 and got is levels
    ref = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                               lapack_driver="stebz")
    assert levels.shape == ref.shape
    assert np.max(np.abs(levels - ref)) <= 4 * EPS * np.max(np.abs(ref))


def test_non_finite_matrices_raise_accuracy_error(lapack_route):
    from qcgibbs.lapack import banded_eigenvalues, tridiagonal_lowest

    band = np.ones((3, 10))
    band[1, 4] = np.nan
    with pytest.raises(AccuracyError, match="dsbev"):
        banded_eigenvalues(band)
    diag = np.full(10, 2.0)
    diag[7] = np.nan
    with pytest.raises(AccuracyError, match="dstebz"):
        tridiagonal_lowest(diag, np.ones(9), 3)


def test_lapack_info_maps_to_accuracy_and_usage_errors():
    from qcgibbs.lapack import _check_info

    _check_info("dsbev", 0)
    with pytest.raises(AccuracyError, match=r"dsbev did not converge \(LAPACK info=9\)"):
        _check_info("dsbev", 9)
    with pytest.raises(ValueError, match="dstebz: argument 3"):
        _check_info("dstebz", -3)


def test_a_non_finite_basis_exits_numerical(monkeypatch, capsys):
    # a NaN in the bands is a numerical failure (exit 3), not a usage error
    bands = spectrum_mod._oscillator_bands

    def poisoned(*args):
        out = bands(*args)
        out[-1][3] = np.nan
        return out

    monkeypatch.setattr(spectrum_mod, "_oscillator_bands", poisoned)
    argv = ["spectrum", "--model", "homogeneous", "--nu", "4", "--count", "5"]
    assert main(argv) == 3
    assert "numerical error: dsbev" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# threads: independent LAPACK calls side by side, small dense solves on one
# BLAS thread


def _one_worker(monkeypatch):
    import qcgibbs.util as util_mod

    monkeypatch.setattr(util_mod, "usable_cpus", lambda: 1)


@pytest.mark.parametrize("count", [17, 583])
@pytest.mark.parametrize("nu", [4, 6, 20])
def test_concurrent_band_blocks_match_one_worker(monkeypatch, nu, count):
    spec = solve_oscillator_basis(homogeneous(nu), count=count)
    _one_worker(monkeypatch)
    serial = solve_oscillator_basis(homogeneous(nu), count=count)
    assert np.array_equal(spec.levels, serial.levels)
    assert np.array_equal(spec.level_errors, serial.level_errors)


def test_concurrent_fd_grids_match_one_worker(monkeypatch):
    count = 200
    half_width = (1.25 * homogeneous_family(3).level_energy(count) + 10.0) ** (1.0 / 3.0)
    args = (homogeneous(3), 1.0, half_width, 2000, count)
    spec = solve_fd_1d(*args)
    _one_worker(monkeypatch)
    serial = solve_fd_1d(*args)
    assert np.array_equal(spec.levels, serial.levels)
    assert np.array_equal(spec.level_errors, serial.level_errors)


def _counts_inside_eigvalsh(monkeypatch, blas_spy) -> list:
    """The BLAS thread count at each numpy.linalg.eigvalsh call from here on."""
    inside, eigvalsh = [], np.linalg.eigvalsh

    def spying(a):
        inside.append(blas_spy.count())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spying)
    return inside


def test_small_sine_bases_solve_on_one_blas_thread(monkeypatch, blas_spy,
                                                   double_well_potential):
    inside = _counts_inside_eigvalsh(monkeypatch, blas_spy)
    prior = blas_spy.count()
    size = spectrum_mod._sine_basis_size(double_well_potential, 1.0, 20)
    assert size <= spectrum_mod.SINE_BASIS_SERIAL_STATES
    spec = solve_sine_basis(double_well_potential, 1.0, count=20)
    assert inside == [1]  # the Ritz levels; the bars wait for their first read
    spec.level_errors
    assert inside == [1, 1]
    assert blas_spy.count() == prior
    assert [count for _, count in blas_spy.sets] == [1, prior, 1, prior]


def test_large_sine_bases_solve_on_every_usable_core(monkeypatch, blas_spy,
                                                     double_well_potential):
    from qcgibbs.lapack import blas_threads
    from qcgibbs.util import usable_cpus

    inside = _counts_inside_eigvalsh(monkeypatch, blas_spy)
    with blas_threads(1):
        spec = solve_sine_basis(double_well_potential, 1.0, count=20,
                                size=spectrum_mod.SINE_BASIS_SERIAL_STATES + 1)
        assert blas_spy.count() == 1
        spec.level_errors
        assert blas_spy.count() == 1
    assert inside == [usable_cpus()] * 2


# ---------------------------------------------------------------------------
# sine basis for tabulated wells


def _noisy_double_well(seed: int):
    """A seeded noisy double well on [-2, 2] with walls at 40, drawn like the
    benchmark's tabulated workload."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(-2.0, 2.0, 161)
    vs = (rng.uniform(2.5, 3.5) * (xs**2 - 1.0) ** 2 + rng.uniform(-0.3, 0.3) * xs
          + 1.0 + rng.uniform(-0.05, 0.05, xs.size))
    vs[[0, -1]] = 40.0
    return tabulated(xs, vs)


def _pit():
    """Walls at 200 around a narrow pit of V = 0 on [0, 1]."""
    xs = np.linspace(0.0, 1.0, 101)
    return tabulated(xs, np.where(np.abs(xs - 0.5) < 0.06, 0.0, 200.0))


@pytest.fixture
def tabulated_well(request, double_well_potential):
    """The conftest double well ("fixture") or a noisy one ("seed N")."""
    if request.param == "fixture":
        return double_well_potential
    return _noisy_double_well(int(request.param.split()[1]))


@pytest.mark.parametrize("planck", [2.0, 1.0, 0.5, 0.25, 0.125])
@pytest.mark.parametrize("tabulated_well", ["fixture", "seed 0", "seed 3"], indirect=True)
def test_sine_basis_bars_bracket_a_larger_basis(tabulated_well, planck):
    # a 4x larger basis lies at or below each Ritz level (interlacing) and at
    # or above the exact level, so E - bar <= E_ref <= E + floor
    count, size = 40, 2 * 40 + 64
    spec = solve_sine_basis(tabulated_well, planck, count=count)
    assert spec.source is SpectrumSource.SINE_BASIS
    ref = solve_sine_basis(tabulated_well, planck, count=count, size=4 * size).levels
    span = tabulated_well.grid_x[-1] - tabulated_well.grid_x[0]
    norm_h = (planck * math.pi * size / span) ** 2 / 2.0 + tabulated_well.grid_v.max()
    floor = 5e-14 * (np.abs(spec.levels) + norm_h)
    levels, bars = spec.levels, spec.level_errors
    assert np.all(levels - bars <= ref)
    assert np.all(ref <= levels + floor)
    # and tight: a few times the error it covers
    assert np.all(bars <= 3.0 * (levels - ref) + floor)


@pytest.mark.parametrize("tabulated_well, planck", [("fixture", 0.5), ("seed 3", 0.25)],
                         indirect=["tabulated_well"])
def test_fd_approaches_the_sine_basis_at_second_order(tabulated_well, planck):
    # an independent check: the raw FD gaps to the basis levels shrink 4x per
    # halving of the spacing (levels 21-30, where they clear FD's rounding)
    count = 30
    basis = solve_sine_basis(tabulated_well, planck, count=count, size=1000).levels[20:]
    gaps = [fd_eigenvalues(tabulated_well, planck, points=p, count=count)[20:] - basis
            for p in (20001, 40003, 80007)]
    for coarse, fine in zip(gaps, gaps[1:]):
        np.testing.assert_allclose(coarse / fine, 4.0, rtol=0.03)


def test_sine_basis_matches_a_scipy_reference(double_well_potential):
    # the same Ritz matrix and Schur bound solved by scipy's LAPACK driver
    from scipy.linalg import eigh

    from qcgibbs.spectrum import _cosine_moments, _sine_basis_size, _sine_matrix

    pot, planck, count = double_well_potential, 0.5, 60
    spec = solve_sine_basis(pot, planck, count=count)
    xs, vs = pot.grid_x, pot.grid_v
    span = float(xs[-1] - xs[0])
    kin = (planck * math.pi / span) ** 2 / 2.0
    size = _sine_basis_size(pot, planck, count)
    c, c2 = _cosine_moments((xs - xs[0]) / span, vs, 2 * size)
    v = _sine_matrix(c, size)
    ham = v + np.diag(kin * np.arange(1, size + 1, dtype=float) ** 2)
    theta = eigh(ham, eigvals_only=True)
    gap = kin * (size + 1) ** 2 + vs.min()
    lower = eigh(ham - (_sine_matrix(c2, size) - v @ v) / (gap - theta[count - 1]),
                 eigvals_only=True)[:count]
    floor = 5e-14 * (np.abs(theta[:count]) + max(abs(theta[0]), abs(theta[-1])))
    assert np.all(np.abs(spec.levels - theta[:count]) <= floor)
    ref_bars = theta[:count] - lower + floor
    assert np.all(np.abs(spec.level_errors - ref_bars) <= floor)


def _direct_moments(u, v, qmax, dtype):
    # the by-parts sums of _cosine_moments with one cos and one sin per
    # (moment, node) pair, in `dtype`: the reference in long double, and in
    # float the direct kernel whose error the angle-addition sums must match
    u, v = np.asarray(u, dtype), np.asarray(v, dtype)
    slope = np.diff(v) / np.diff(u)
    padded = np.concatenate(([dtype(0)], slope, [dtype(0)]))
    jumps, sin_w = -np.diff(padded), 2 * np.diff(padded**2)
    pi = dtype("3.14159265358979323846264338327950288")
    c, c2 = np.empty(qmax + 1, dtype), np.empty(qmax + 1, dtype)
    du = np.diff(u)
    c[0] = np.dot(du, v[:-1] + v[1:]) / 2
    c2[0] = np.dot(du, v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3
    for q in range(1, qmax + 1):
        k = pi * q
        cos, sin = np.cos(k * u), np.sin(k * u)
        c[q] = np.dot(cos, jumps) / k**2
        c2[q] = np.dot(cos, 2 * v * jumps) / k**2 + np.dot(sin, sin_w) / k**3
    return c, c2, jumps, sin_w


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs a long double wider than double")
@pytest.mark.parametrize("grid", ["uniform", "graded"])
def test_cosine_moments_match_a_long_double_reference(grid):
    from qcgibbs.spectrum import _cosine_moments

    table = np.loadtxt(Path(__file__).parent / "data" / "seed0_double_well.csv",
                       delimiter=",", skiprows=1)
    u = (table[:, 0] - table[0, 0]) / (table[-1, 0] - table[0, 0])
    v = table[:, 1]
    if grid == "graded":  # Chebyshev-spaced nodes, dense at the walls
        u_new = (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 161))) / 2.0
        u, v = u_new, np.interp(u_new, u, v)
    qmax = 436  # the benchmark's basis of 218 states at h = 1/2
    ref_c, ref_c2, jumps, sin_w = _direct_moments(u, v, qmax, np.longdouble)
    old_c, old_c2, _, _ = _direct_moments(u, v, qmax, float)
    c, c2 = _cosine_moments(u, v, qmax)
    # the rounding scale of each moment: eps times the weights' absolute sum,
    # with the phase k u rounded to eps k u
    eps, k = np.finfo(float).eps, math.pi * np.arange(1, qmax + 1)
    jumps, sin_w = np.abs(jumps.astype(float)), np.abs(sin_w.astype(float))
    scale = eps * (1 + k) * jumps.sum() / k**2
    scale2 = eps * (1 + k) * (np.dot(2 * np.abs(v), jumps) / k**2 + sin_w.sum() / k**3)
    for new, old, ref, size in ((c, old_c, ref_c, scale), (c2, old_c2, ref_c2, scale2)):
        assert abs(new[0] - ref[0]) <= 4 * np.spacing(abs(float(ref[0])))  # closed form
        err = np.abs((new - ref)[1:].astype(float)) / size
        err_old = np.abs((old - ref)[1:].astype(float)) / size
        # at the rounding scale, and no larger than the direct sums' error
        assert err.max() < 0.5
        assert err.max() <= err_old.max() + 0.02


def test_sine_basis_grows_past_high_walls():
    # walls at 200 around a narrow pit: 2 * count + 64 states leave the 20th
    # Ritz level above the omitted states' floor, so the basis grows until the
    # floor clears twice count^2 c1 + max V (182 states), and the bars bracket
    pit = _pit()
    with pytest.raises(AccuracyError, match="level 20"):
        solve_sine_basis(pit, 0.05, count=20, size=104)
    spec = solve_sine_basis(pit, 0.05, count=20)
    ref = solve_sine_basis(pit, 0.05, count=20, size=600).levels
    assert np.all(spec.levels - spec.level_errors <= ref)
    assert np.all(ref <= spec.levels * (1.0 + 1e-13))
    # and tight: a floor only just above theta_20 (129 states) leaves the
    # ground level E_1 = 1.003 a bar of 510, and the others bars of 14 to 81
    assert spec.level_errors[0] < 2e-3
    assert np.all(spec.level_errors < 0.25)


def _eager_sine_basis(potential, planck, count, size):
    # the levels and bars of a sine basis solved in one pass, with both
    # matrices built before the first eigensolve: the reference the deferred
    # bars must match bit for bit
    from qcgibbs.lapack import blas_threads
    from qcgibbs.spectrum import _cosine_moments, _sine_matrix
    from qcgibbs.util import usable_cpus

    xs, vs = potential.grid_x, potential.grid_v
    span = float(xs[-1] - xs[0])
    kin = (planck * math.pi / span) ** 2 / (2.0 * potential.mass)
    with blas_threads(1 if size <= spectrum_mod.SINE_BASIS_SERIAL_STATES else usable_cpus()):
        c, c2 = _cosine_moments((xs - xs[0]) / span, vs, 2 * size)
        ham = _sine_matrix(c, size)
        coupling = _sine_matrix(c2, size)
        coupling -= ham @ ham
        ham[np.diag_indices(size)] += kin * np.arange(1, size + 1, dtype=float) ** 2
        theta = np.linalg.eigvalsh(ham)
        value = theta[:count]
        top = float(value[-1])
        gap = kin * (size + 1) ** 2 + float(vs.min())
        coupling *= 1.0 / (gap - top)
        ham -= coupling
        lower = np.linalg.eigvalsh(ham)[:count]
    norm_h = max(abs(theta[0]), abs(theta[-1]))
    return value, (value - lower) + 5e-14 * (np.abs(value) + norm_h)


@pytest.mark.parametrize("size", [None, spectrum_mod.SINE_BASIS_SERIAL_STATES + 20],
                         ids=["serial", "threaded"])
@pytest.mark.parametrize("well, planck, count", [
    ("seed 0", 1.0, 40), ("seed 3", 0.5, 60), ("pit", 0.05, 20)])
def test_deferred_sine_basis_bars_equal_the_eager_formula(well, planck, count, size):
    potential = _pit() if well == "pit" else _noisy_double_well(int(well.split()[1]))
    if size is None:
        size = spectrum_mod._sine_basis_size(potential, planck, count)
        assert size <= spectrum_mod.SINE_BASIS_SERIAL_STATES
    spec = solve_sine_basis(potential, planck, count=count, size=size)
    assert "level_errors" not in vars(spec)  # not solved yet
    levels, bars = _eager_sine_basis(potential, planck, count, size)
    assert np.array_equal(spec.levels, levels)
    assert np.array_equal(spec.level_errors, bars)
    assert spec.level_errors is spec.level_errors  # solved once, then kept


def test_threads_reading_pending_bars_at_once_get_the_same_bars(double_well_potential):
    # readers that race to the first read may each solve the bars; every one
    # gets the eager formula's bars, and none raises
    import sys
    from concurrent.futures import ThreadPoolExecutor

    count = 40
    size = spectrum_mod._sine_basis_size(double_well_potential, 1.0, count)
    ref = _eager_sine_basis(double_well_potential, 1.0, count, size)[1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(5):
                spec = solve_sine_basis(double_well_potential, 1.0, count=count)
                reads = [pool.submit(lambda: spec.level_errors) for _ in range(8)]
                assert all(np.array_equal(f.result(timeout=60), ref) for f in reads)
    finally:
        sys.setswitchinterval(interval)


def test_a_solved_sine_basis_retains_no_matrix(double_well_potential):
    # a 1,000-state basis: one of its matrices is 8 MB, and the spectrum
    # keeps only O(size) arrays before and after its bars are read
    import tracemalloc

    count = 468
    assert spectrum_mod._sine_basis_size(double_well_potential, 1.0, count) == 1000
    tracemalloc.start()
    try:
        spec = solve_sine_basis(double_well_potential, 1.0, count=count)
        pending = tracemalloc.get_traced_memory()[0]
        spec.level_errors
        solved = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pending < 1e6 and solved < 1e6


@pytest.mark.parametrize("bars", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_spectrum_refuses_bars_that_are_not_bars(bars):
    # bars of -1 on levels 1..60 at beta = 1 gave a Z_q bound of -0.58
    levels = np.arange(1.0, 61.0)
    with pytest.raises(ValueError, match="finite and non-negative"):
        Spectrum(levels, 1.0, SpectrumSource.GIVEN, level_errors=np.full(60, bars))
    deferred = Spectrum(levels, 1.0, SpectrumSource.GIVEN,
                        level_errors=lambda: np.full(60, bars))
    for _ in range(2):  # refused at every read
        with pytest.raises(ValueError, match="finite and non-negative"):
            deferred.level_errors


def test_sine_basis_refuses_bases_above_the_state_limit(double_well_potential):
    cap = sine_basis_level_cap(double_well_potential, 1.0)
    assert cap == (SINE_BASIS_MAX_STATES - 64) // 2
    with pytest.raises(ResourceError, match=f"{SINE_BASIS_MAX_STATES}-state limit"):
        solve_sine_basis(double_well_potential, 1.0, count=cap + 1)
    with pytest.raises(ResourceError, match=f"{SINE_BASIS_MAX_STATES}-state limit"):
        solve_sine_basis(double_well_potential, 1.0, count=8, size=SINE_BASIS_MAX_STATES + 1)


def test_fd_refuses_tabulated_wells(double_well_potential):
    with pytest.raises(ValueError, match="sine basis"):
        solve_fd_1d(double_well_potential, 1.0, None, 1500, 4)


def test_sine_basis_source_through_cli(double_well_potential, tmp_path, capsys):
    table = tmp_path / "well.csv"
    save_tabulated_csv(double_well_potential, table)
    argv = ["spectrum", "--model", "tabulated", "--table", str(table), "--count", "5"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("# h=1\n# source=sine_basis\nn,E\n")


# ---------------------------------------------------------------------------
# analytic oscillator and wedge


def test_oscillator_levels():
    spec = oscillator_spectrum(4, mass=1.0, planck=1.0)
    np.testing.assert_allclose(spec.levels, math.sqrt(2.0) * (np.arange(1, 5) - 0.5), rtol=1e-15)
    assert spec.source is SpectrumSource.ANALYTIC_HARMONIC


def test_wedge_levels_against_fd():
    # the |x| kink caps Richardson convergence on even states near 1e-5 at
    # this resolution; the solver's own estimates must cover the true error
    analytic = wedge_spectrum(8)
    fd = solve_fd_1d(homogeneous(1), 1.0, 32.0, 1500, 8)
    np.testing.assert_allclose(fd.levels, analytic.levels, rtol=2e-5)
    assert np.all(np.abs(fd.levels - analytic.levels) <= fd.level_errors)


def test_wedge_mass_and_planck_scaling():
    base = wedge_spectrum(5)
    scaled = wedge_spectrum(5, mass=2.0, planck=3.0)
    np.testing.assert_allclose(
        scaled.levels, base.levels * (3.0**2 / 2.0) ** (1.0 / 3.0), rtol=1e-14
    )


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_identity():
    base = Spectrum(np.array([1.0, 2.0, 3.0]), 1.0, SpectrumSource.ANALYTIC_BOX)
    out = rescale(base, 1.0, 1.0)
    np.testing.assert_array_equal(out.levels, base.levels)
    assert out.source is SpectrumSource.RESCALED


def test_rescale_is_exact_multiplication():
    base = Spectrum(np.linspace(0.7, 40.0, 32), 1.0, SpectrumSource.ANALYTIC_BOX)
    out = rescale(base, 2.3, 0.75)
    np.testing.assert_array_equal(out.levels, base.levels * 2.3**0.75)


def test_rescale_values():
    base = Spectrum(np.array([PI2 / 2]), 1.0, SpectrumSource.ANALYTIC_BOX)
    assert rescale(base, 3.0, 2.0).levels[0] == pytest.approx(9 * PI2 / 2, rel=1e-14)
    base1 = Spectrum(np.array([1.0]), 1.0, SpectrumSource.ANALYTIC_BOX)
    assert rescale(base1, 4.0, 2.0 / 3.0).levels[0] == pytest.approx(
        4.0 ** (2.0 / 3.0), rel=1e-14
    )


def test_rescale_multiplicativity():
    base = Spectrum(np.array([1.0, 2.5, 4.0]), 1.0, SpectrumSource.ANALYTIC_BOX)
    a = 0.75
    once = rescale(base, 2.0 * 3.0, a)
    np.testing.assert_allclose(once.levels, base.levels * (2.0 * 3.0) ** a, rtol=1e-14)
    np.testing.assert_allclose(
        once.levels, base.levels * 2.0**a * 3.0**a, rtol=1e-14
    )


@settings(max_examples=60, deadline=None)
@given(levels=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=24),
       rel_errors=st.lists(st.floats(0.0, 1e-3), min_size=24, max_size=24),
       planck=st.floats(1e-3, 1e3), exponent=st.floats(0.05, 4.0))
def test_rescale_scales_levels_and_errors_alike(levels, rel_errors, planck, exponent):
    levels = np.sort(levels)
    errors = levels * np.asarray(rel_errors[: levels.size])
    base = Spectrum(levels, 1.0, SpectrumSource.OSCILLATOR_BASIS, level_errors=errors)
    out = rescale(base, planck, exponent)
    factor = planck**exponent
    np.testing.assert_array_equal(out.levels, base.levels * factor)
    np.testing.assert_array_equal(out.level_errors, base.level_errors * factor)
    assert out.planck == planck


def test_rescale_contract():
    base = Spectrum(np.array([1.0]), 1.0, SpectrumSource.ANALYTIC_BOX)
    scaled = rescale(base, 2.0, 1.0)
    with pytest.raises(ContractError):
        rescale(scaled, 2.0, 1.0)
    with pytest.raises(ValueError):
        rescale(base, -1.0, 1.0)
    off_base = Spectrum(np.array([1.0]), 2.0, SpectrumSource.ANALYTIC_BOX)
    with pytest.raises(ContractError):
        rescale(off_base, 2.0, 1.0)


# ---------------------------------------------------------------------------
# tail bounds


def test_tail_bound_box():
    spec = solve_box(1, [1.0], count=50)
    bound = math.exp(log_tail_bound(spec, 1.0))
    # oracle: the true tail, summed directly to 200 terms, is ~exp(-beta E_51)
    n = np.arange(51, 201)
    true_tail = float(np.exp(-PI2 / 2 * n**2).sum())
    assert bound <= 1e-100
    assert bound >= true_tail  # a bound, not an estimate


def test_tail_bound_linear_levels():
    spec = Spectrum(np.arange(1.0, 21.0), 1.0, SpectrumSource.ANALYTIC_BOX)
    bound = math.exp(log_tail_bound(spec, 1.0))
    geometric = math.exp(-21.0) / (1.0 - math.exp(-1.0))
    assert bound >= geometric * 0.999
    assert bound <= 3.0 * geometric


def test_tail_bound_monotone_in_beta():
    spec = Spectrum(np.arange(1.0, 41.0) ** 1.3, 1.0, SpectrumSource.ANALYTIC_BOX)
    for beta in (0.5, 1.0, 2.0, 4.0):
        assert math.exp(log_tail_bound(spec, 2 * beta)) <= math.exp(log_tail_bound(spec, beta))


def test_tail_bound_needs_depth():
    spec = Spectrum(np.array([1.0, 2.0]), 1.0, SpectrumSource.ANALYTIC_BOX)
    with pytest.raises(ValueError, match="log_tail_bound needs"):
        log_tail_bound(spec, 1.0)


def test_tail_model_rejects_flat_spectrum():
    spec = Spectrum(np.ones(16), 1.0, SpectrumSource.ANALYTIC_BOX)
    with pytest.raises(TailModelError):
        log_tail_bound(spec, 1.0)


def test_the_tail_law_is_fitted_on_its_first_read():
    spec = solve_box(1, [1.0], count=50)
    assert "tail_model" not in vars(spec)
    log_tail_bound(spec, 1.0)
    assert vars(spec)["tail_model"] == fit_tail_model(spec.levels)
    assert solve_box(1, [1.0], count=7).tail_model is None


@pytest.mark.parametrize("family", ["quartic", "wedge", "box 1 x 1.3"])
def test_a_rescaled_tail_law_is_the_scaled_base_law(family, request):
    # refitted from the rescaled levels, (gamma, C h^a) up to rounding
    fam = box_family([1.0, 1.3]) if family.startswith("box") else request.getfixturevalue(family)
    base, a = fam.base_spectrum(0.5), fam.energy_exponent
    gamma, pref = base.tail_model
    for h in (0.3, 0.7, 2.5):
        assert rescale(base, h, a).tail_model == pytest.approx((gamma, pref * h**a), rel=1e-12)


# ---------------------------------------------------------------------------
# construction and serialization


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0]), 1.0, SpectrumSource.ANALYTIC_BOX)
    with pytest.raises(ValueError):
        Spectrum(np.array([2.0, 1.0]), 1.0, SpectrumSource.ANALYTIC_BOX)
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0]), -1.0, SpectrumSource.ANALYTIC_BOX)


def test_csv_round_trip(tmp_path):
    spec = solve_box(1, [1.0], planck=0.5, count=12)
    path = tmp_path / "spec.csv"
    path.write_text(spectrum_text(spec))
    text = path.read_text()
    assert text.startswith("# h=0.5\n# source=analytic_box\nn,E\n")
    back = spectrum_from_csv(path)
    np.testing.assert_array_equal(back.levels, spec.levels)
    assert back.planck == spec.planck
    assert back.source is spec.source


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(list(SpectrumSource)), planck=positive,
       levels=st.lists(positive, min_size=1, max_size=24))
def test_csv_round_trip_is_bit_exact(tmp_path_factory, source, planck, levels):
    spec = Spectrum(np.sort(levels), planck, source)
    path = tmp_path_factory.mktemp("csv") / "spec.csv"
    path.write_text(spectrum_text(spec))
    back = spectrum_from_csv(path)
    assert back.levels.tobytes() == spec.levels.tobytes()
    assert back.planck == planck
    assert back.source is source


def test_read_levels_rules():
    # '#' starts a comment anywhere, a line that is only a key=value comment
    # is metadata, and a row's last comma field is its level
    text = ("# h=0.5\n#source = given\n# a note\nn,E\n\n1,2.5  # c=3\n3.5\n"
            "  7,8,9.25  \n")
    assert read_levels(text) == ([2.5, 3.5, 9.25], {"h": "0.5", "source": "given"})


def test_csv_rejects_disorder(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# h=1\n# source=analytic_box\nn,E\n1,2.0\n2,1.0\n")
    with pytest.raises(ValueError):
        spectrum_from_csv(path)
