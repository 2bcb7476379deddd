import numpy as np
import pytest

from gclkit import experiments, flow, gcl
from gclkit.hexmesh import FACE_FAMILY
from gclkit.metrics import (
    abs_err_ifmv_vs_reference,
    abs_err_sum_vs_dvoldt,
    fd_reference_errors,
    rel_err_freestream,
)
from gclkit.motion import MotionCase, sample_motion
from gclkit.spectral import SpectralOperator
from oracles import cell_face_slots, fitted_order


def test_rel_err_identical_fields():
    w0 = np.array([1.0, 0.5, 0.0, 0.0, 2.625])
    states = np.tile(w0[:, None, None], (1, 4, 7))
    assert rel_err_freestream(states, w0) == 0.0


def test_rel_err_single_perturbed_entry():
    w0 = np.array([1.0, 0.5, 0.0, 0.0, 2.625])
    states = np.tile(w0[:, None, None], (1, 3, 5))
    states[0, 1, 2] *= 1.0 + 1e-6
    assert rel_err_freestream(states, w0) == pytest.approx(1e-6, rel=1e-9, abs=0.0)


def test_rel_err_zero_component_normalisation():
    # zero reference components fall back to the largest reference magnitude
    w0 = np.array([1.0, 0.5, 0.0, 0.0, 2.625])
    states = np.tile(w0[:, None, None], (1, 2, 2))
    states[2, 0, 0] += 1e-3
    assert rel_err_freestream(states, w0) == pytest.approx(1e-3 / 2.625, rel=1e-12, abs=0.0)


def test_rel_err_grows_with_conservation_defect(small_mesh):
    values = []
    for alpha0 in (0.02, 0.05):
        traj = sample_motion(small_mesh, MotionCase.for_case("case2", alpha0=alpha0), 2)
        op = SpectralOperator(2)
        result = flow.FreestreamProblem(small_mesh, traj, op, None).march()
        values.append(result.rel_err)
    assert 0.0 < values[0] < values[1]


def test_abs_err2_reference_self_consistency(small_mesh):
    traj = sample_motion(small_mesh, MotionCase.for_case("case2"), 2)
    field = gcl.trimap_field(small_mesh, traj)
    for d in "xyz":
        assert abs_err_ifmv_vs_reference(small_mesh, field, field, d) == 0.0


def test_abs_err1_uses_spectral_derivative(small_mesh):
    traj = sample_motion(small_mesh, MotionCase.for_case("case1"), 2)
    op = SpectralOperator(2)
    series = gcl.extract_linear_and_periodic(gcl.aevi_increments(small_mesh, traj))
    field = gcl.ifmv_nlfd(series, op)
    dvoldt = op.differentiate(traj.volumes)
    assert abs_err_sum_vs_dvoldt(small_mesh, field, dvoldt) <= 1e-11


def _cell_slots(mesh, values):
    """Per-interface values (n_interfaces, ...) as signed cell-face slots (n_cells, 6, ...)."""
    interfaces, signs = cell_face_slots(mesh)
    return values[interfaces] * signs.reshape(signs.shape + (1,) * (values.ndim - 1))


def _slot_field(point, method):
    """A method's IFMV computed the cell-slot way: increments scattered to the
    slots, then split and transformed there (avg and trimap scattered; a
    ts-* method is its nlfd-* twin)."""
    if method in ("avg", "trimap"):
        field = gcl.ifmv_avg(point.mesh, point.trajectory) if method == "avg" else point.reference
        return _cell_slots(point.mesh, field.total)
    maker = gcl.lvi_increments if method.endswith("-lvi") else gcl.aevi_increments
    series = maker(point.mesh, point.trajectory)
    totals = _cell_slots(point.mesh, series.totals)
    split = gcl.extract_linear_and_periodic(
        gcl.IncrementSeries(series.period, series.times, totals)
    )
    return gcl.ifmv_nlfd(split, point.spectral).total


def test_errors_equal_cell_slot_reference(paper_mesh):
    point = experiments.prepare_point(paper_mesh, MotionCase.for_case("case5"), 5)
    reference = _cell_slots(paper_mesh, point.reference.total)
    for row in experiments.evaluate_point(point, [row for row, _ in experiments.METHODS.values()]):
        total = _slot_field(point, row.method)
        assert row.abs_err1 == np.max(np.abs(total.sum(axis=1) - point.dvoldt)), row.method
        for d in "xyz":
            slots = list(FACE_FAMILY[d])
            err2 = np.max(np.abs(total[:, slots] - reference[:, slots]))
            assert getattr(row, f"abs_err2_{d}") == err2, (row.method, d)


def test_fd_reference_errors_orders():
    op = SpectralOperator(20, period=1.0)
    fd1s, fd2s = [], []
    for n in (5, 10, 20):
        op = SpectralOperator(n)
        vols = 1.0 + 0.1 * np.sin(2 * np.pi * op.times)[None, :]
        rates = 0.1 * 2 * np.pi * np.cos(2 * np.pi * op.times)[None, :]
        fd1, fd2 = fd_reference_errors(vols, rates, 1.0)
        fd1s.append(fd1)
        fd2s.append(fd2)
    nts = np.array([2 * n + 1 for n in (5, 10, 20)])
    assert fitted_order(nts, np.array(fd1s)) == pytest.approx(1.0, abs=0.1)
    assert fitted_order(nts, np.array(fd2s)) == pytest.approx(2.0, abs=0.1)


def test_fitted_order_synthetic():
    nts = np.array([11, 21, 41, 81])
    assert fitted_order(nts, 3.0 / nts) == pytest.approx(1.0, abs=0.01)
    assert fitted_order(nts, 0.2 / nts**2) == pytest.approx(2.0, abs=0.01)


def test_fitted_order_requires_points_above_floor():
    nts = np.array([11, 21, 41])
    with pytest.raises(ValueError):
        fitted_order(nts, np.array([1e-15, 1e-15, 1e-15]))
    with pytest.raises(ValueError):
        fitted_order(np.array([11, 21]), np.array([1e-2, 1e-3]))


def test_rel_err_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        rel_err_freestream(np.zeros((3, 4)), np.zeros(5))
    # component-last states are rejected, not reinterpreted
    with pytest.raises(ValueError):
        rel_err_freestream(np.ones((4, 7, 5)), np.ones(5))


def test_rel_err_reads_components_first_when_every_axis_is_five():
    # a (5, 5, 5, 5, 5) state is what the 5^3 mesh at N = 2 marches; only
    # the first axis holds the components, and read along the last axis the
    # uniform state would depart from itself by O(1)
    w0 = np.array([1.0, 0.5, 0.0, 0.0, 2.625])
    states = np.tile(w0.reshape(5, 1, 1, 1, 1), (1, 5, 5, 5, 5))
    states[1, 3, 0, 0, 2] = 0.5 * (1.0 + 1e-6)
    assert rel_err_freestream(states, w0) == pytest.approx(1e-6, rel=1e-9, abs=0.0)
