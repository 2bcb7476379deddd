"""Blocked geometry kernels against their one-shot formulas.

The per-element kernels (LVI and AEVI sweeps, AVG and TRI-MAP face fluxes,
cell volumes, exact volume rates, the degeneracy gate) run over blocks of
``BLOCK_ELEMENT_INSTANTS`` element-instants.  Their arithmetic is elementwise,
so every value must be bitwise what one call over the whole stack of
instants x elements gives; the formulas below are those one-shot calls.
"""

import tracemalloc

import numpy as np
import pytest

from gclkit import gcl
from gclkit.gcl import quad_flux, sweep_volume
from gclkit.hexmesh import (
    BLOCK_ELEMENT_INSTANTS,
    corner_jacobians,
    detect_degenerate,
    hex_volume,
    quad_area_vectors,
)
from gclkit.motion import MotionCase, sample_motion

N = 20  # 2N+2 = 42 instants: several blocks per kernel, the last one ragged


def _bitwise_equal(a, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _one_shot_increments(mesh, trajectory, kind):
    quads = trajectory.positions[:, mesh.interface_vertex_ids]
    totals = np.zeros((quads.shape[1], quads.shape[0]))
    if kind == "lvi":
        totals[:, 1:] = sweep_volume(quads[0], quads[1:]).T
    else:
        np.cumsum(sweep_volume(quads[:-1], quads[1:]).T, axis=-1, out=totals[:, 1:])
    return mesh.scatter_to_cells(totals)


def _one_shot_avg(mesh, trajectory):
    quads = trajectory.positions[:-1][:, mesh.interface_vertex_ids]
    vbar = trajectory.velocities[:-1][:, mesh.interface_vertex_ids].mean(axis=-2)
    flux = (vbar * quad_area_vectors(quads)).sum(axis=-1)
    return mesh.scatter_to_cells(flux.T)


def _one_shot_trimap(mesh, trajectory):
    flux = quad_flux(
        trajectory.positions[:-1][:, mesh.interface_vertex_ids],
        trajectory.velocities[:-1][:, mesh.interface_vertex_ids],
    )
    return mesh.scatter_to_cells(flux.T)


def _one_shot_volumes(mesh, trajectory):
    return np.moveaxis(hex_volume(mesh.cell_corners(trajectory.positions)[:-1]), 0, -1)


def _one_shot_rates(mesh, trajectory):
    corners = mesh.cell_corners(trajectory.positions)[:-1]
    vel = mesh.cell_corners(trajectory.velocities)[:-1]
    return np.moveaxis(gcl.dvoldt_trimap(corners, vel), 0, -1)


def _one_shot_gate(mesh, positions):
    corners = mesh.cell_corners(positions)
    bad = (hex_volume(corners) <= 0.0) | (corner_jacobians(corners).min(axis=-1) <= 0.0)
    return np.flatnonzero(bad)


@pytest.fixture(scope="module")
def case5_trajectory(paper_mesh):
    return sample_motion(paper_mesh, MotionCase.for_case("case5"), N)


def test_paper_mesh_spans_ragged_blocks(paper_mesh):
    for n_elements in (len(paper_mesh.interface_vertex_ids), paper_mesh.n_cells):
        for n_instants in (2 * N + 1, 2 * N + 2):
            step = BLOCK_ELEMENT_INSTANTS // n_instants
            assert n_elements > 2 * step and n_elements % step != 0


@pytest.mark.parametrize("kind", ["lvi", "aevi"])
def test_increments_bitwise_equal_one_shot(paper_mesh, case5_trajectory, kind):
    maker = gcl.lvi_increments if kind == "lvi" else gcl.aevi_increments
    series = maker(paper_mesh, case5_trajectory)
    assert _bitwise_equal(
        series.totals, _one_shot_increments(paper_mesh, case5_trajectory, kind)
    )


def test_face_fields_bitwise_equal_one_shot(paper_mesh, case5_trajectory):
    avg = gcl.ifmv_avg(paper_mesh, case5_trajectory).total
    assert _bitwise_equal(avg, _one_shot_avg(paper_mesh, case5_trajectory))
    trimap = gcl.trimap_field(paper_mesh, case5_trajectory).total
    assert _bitwise_equal(trimap, _one_shot_trimap(paper_mesh, case5_trajectory))


def test_cell_kernels_bitwise_equal_one_shot(paper_mesh, case5_trajectory):
    volumes = gcl.cell_volumes(paper_mesh, case5_trajectory)
    assert _bitwise_equal(volumes, _one_shot_volumes(paper_mesh, case5_trajectory))
    rates = gcl.exact_volume_rates(paper_mesh, case5_trajectory)
    assert _bitwise_equal(rates, _one_shot_rates(paper_mesh, case5_trajectory))


def test_gate_indices_equal_one_shot(paper_mesh):
    # a case-4 amplitude that inverts cells at about half the instants
    case = MotionCase.for_case("case4", rbf_amplitude=0.2)
    positions = sample_motion(paper_mesh, case, N, check_degeneracy=False).positions[:-1]
    bad = detect_degenerate(paper_mesh, positions)
    expected = _one_shot_gate(paper_mesh, positions)
    assert len(expected) > 0
    assert bad.tolist() == expected.tolist()
    # one instant: plain cell ids
    n = int(expected[0]) // paper_mesh.n_cells
    single = detect_degenerate(paper_mesh, positions[n])
    assert single.tolist() == _one_shot_gate(paper_mesh, positions[n]).tolist()


@pytest.mark.parametrize(
    "kernel",
    [
        gcl.lvi_increments,
        gcl.aevi_increments,
        gcl.ifmv_avg,
        gcl.trimap_field,
        gcl.cell_volumes,
        gcl.exact_volume_rates,
        lambda mesh, trajectory: detect_degenerate(mesh, trajectory.positions[:-1]),
    ],
    ids=["lvi", "aevi", "avg", "trimap", "volumes", "rates", "gate"],
)
def test_kernel_allocation_peak_is_bounded(paper_mesh, case5_trajectory, kernel):
    # one-shot evaluation over all 41-42 instants allocated 34-242 MB here
    tracemalloc.start()
    try:
        kernel(paper_mesh, case5_trajectory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6, f"allocation peak {peak / 1e6:.1f} MB"
