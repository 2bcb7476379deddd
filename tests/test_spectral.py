import numpy as np
import pytest

from gclkit.gcl import exact_volume_rates
from gclkit.motion import MotionCase, sample_motion
from gclkit.spectral import SpectralOperator, ts_matrix
from oracles import dft_derivative, fourier_defect


def test_dft_of_constant():
    op = SpectralOperator(3)
    coeff = op.dft(np.full(op.nts, 2.5))
    assert coeff[op.n_harmonics] == pytest.approx(2.5, abs=1e-14)
    others = np.delete(coeff, op.n_harmonics)
    assert np.abs(others).max() <= 1e-14


def test_dft_of_cosine():
    op = SpectralOperator(4, period=2.0)
    coeff = op.dft(np.cos(2 * np.pi * op.times / op.period))
    k = op.wavenumbers
    assert coeff[k == 1][0] == pytest.approx(0.5, abs=1e-14)
    assert coeff[k == -1][0] == pytest.approx(0.5, abs=1e-14)
    assert np.abs(coeff[np.abs(k) != 1]).max() <= 1e-14


def test_round_trip_all_odd_counts(rng):
    for nts in range(3, 42, 2):
        op = SpectralOperator((nts - 1) // 2)
        s = rng.normal(size=nts)
        assert np.abs(op.idft(op.dft(s)) - s).max() <= 1e-13


def test_reconstruction_of_real_signal_is_real(rng):
    op = SpectralOperator(6)
    s = rng.normal(size=op.nts)
    assert np.abs(op.idft(op.dft(s)).imag).max() <= 1e-13


def test_parseval(rng):
    op = SpectralOperator(10)
    s = rng.normal(size=op.nts)
    lhs = np.sum(np.abs(s) ** 2) / op.nts
    rhs = np.sum(np.abs(op.dft(s)) ** 2)
    assert rhs == pytest.approx(lhs, rel=1e-12, abs=0.0)  # relative only


def test_differentiate_constant_and_cosine():
    op = SpectralOperator(5, period=0.5)
    assert np.abs(op.differentiate(np.ones(op.nts))).max() <= 1e-12
    samples = np.cos(2 * np.pi * op.times / op.period)
    expected = -(2 * np.pi / op.period) * np.sin(2 * np.pi * op.times / op.period)
    np.testing.assert_allclose(op.differentiate(samples), expected, atol=1e-12)


def test_differentiate_equals_matrix_product(rng):
    op = SpectralOperator(8, period=1.7)
    signals = rng.normal(size=(100, op.nts))
    # the matrix and the DFT route are the same operator on the samples
    assert np.abs(op.differentiate(signals) - dft_derivative(op, signals)).max() <= 1e-12
    # mode by mode: the gap summed over modes bounds the sample gap from above
    assert fourier_defect(op, op.differentiate(signals), signals) <= 1e-12


def test_ts_matrix_structure():
    for n in (1, 4, 9):
        d = ts_matrix(n, period=1.3)
        assert np.abs(np.diag(d)).max() == 0.0
        assert np.array_equal(d, -d.T)  # skew-symmetric exactly


def test_ts_matrix_annihilates_constants():
    period = 0.7
    d = ts_matrix(10, period)
    assert np.abs(d @ np.ones(21)).max() <= 1e-12 / period


def test_ts_matrix_reference_entry():
    # N = 1, T = 1: first off-diagonal entry is 2*pi/sqrt(3)
    d = ts_matrix(1, 1.0)
    assert d[0, 1] == pytest.approx(2 * np.pi / np.sqrt(3.0), abs=1e-12)
    assert d[0, 1] == pytest.approx(3.6275987284684357, abs=1e-12)


def test_ts_matrix_differentiates_sine():
    op = SpectralOperator(6, period=2.0)
    s = np.sin(2 * np.pi * op.times / op.period)
    expected = (2 * np.pi / op.period) * np.cos(2 * np.pi * op.times / op.period)
    np.testing.assert_allclose(op.d_matrix @ s, expected, atol=1e-12)


def test_resolves_band_limited_exponentials():
    op = SpectralOperator(4, period=1.0)
    for k in range(-4, 5):
        s = np.exp(2j * np.pi * k * op.times)
        ds = op.differentiate(s)
        np.testing.assert_allclose(
            ds, 2j * np.pi * k * s, rtol=1e-11, atol=1e-11
        )


@pytest.mark.parametrize("build", [SpectralOperator, ts_matrix])
@pytest.mark.parametrize(
    "n_harmonics, period, bad",
    [
        (2, float("inf"), "inf"),
        (2, 0.0, "0.0"),
        (2, -1.0, "-1.0"),
        (2, float("nan"), "nan"),
        (0, 1.0, "0"),
        (2.5, 1.0, "2.5"),
        (float("inf"), 1.0, "inf"),
    ],
)
def test_impossible_sampling_rejected(build, n_harmonics, period, bad):
    with pytest.raises(ValueError) as excinfo:
        build(n_harmonics, period)
    assert str(excinfo.value).endswith(f"got {bad}")


def test_even_or_bad_sample_counts_rejected():
    with pytest.raises(ValueError):
        SpectralOperator(0)
    op = SpectralOperator(2)
    with pytest.raises(ValueError):
        op.dft(np.zeros(6))


def test_volume_derivative_error_rigid_translation(small_mesh):
    case = MotionCase.for_case("rigid-translation")
    for n in (1, 4):
        traj = sample_motion(small_mesh, case, n)
        op = SpectralOperator(n)
        volumes, rates = traj.volumes, exact_volume_rates(small_mesh, traj)
        err = np.abs(op.differentiate(volumes) - rates).max()
        assert err <= 1e-13


def test_volume_derivative_error_case1_band_limited(small_mesh):
    case = MotionCase.for_case("case1")
    for n in (2, 3, 6):
        traj = sample_motion(small_mesh, case, n)
        op = SpectralOperator(n)
        volumes, rates = traj.volumes, exact_volume_rates(small_mesh, traj)
        err = np.abs(op.differentiate(volumes) - rates).max()
        assert err <= 1e-11


def test_volume_derivative_error_case2_spectral_decay(small_mesh):
    case = MotionCase.for_case("case2")
    errs = []
    for n in (2, 4, 6, 8):
        traj = sample_motion(small_mesh, case, n)
        op = SpectralOperator(n)
        volumes, rates = traj.volumes, exact_volume_rates(small_mesh, traj)
        errs.append(np.abs(op.differentiate(volumes) - rates).max())
    # monotone decay (within a factor-10 slack) and faster than second order
    for a, b in zip(errs, errs[1:]):
        assert b <= 10 * a
    floor = 1e-13
    usable = [e for e in errs if e > floor]
    if len(usable) >= 2:
        nts = np.array([2 * n + 1 for n in (2, 4, 6, 8)])[: len(usable)]
        slope = np.polyfit(np.log(1.0 / nts), np.log(usable), 1)[0]
        assert slope > 2.0
