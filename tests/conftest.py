import numpy as np
import pytest

from gclkit.hexmesh import build_box_mesh

PAPER_MESH = (10, 10, 10, 3.2, 2.8, 2.4)


@pytest.fixture(scope="session")
def paper_mesh():
    return build_box_mesh(*PAPER_MESH)


@pytest.fixture(scope="session")
def small_mesh():
    # same box, coarser: cheap stand-in where cell count is irrelevant
    return build_box_mesh(5, 5, 5, 3.2, 2.8, 2.4)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _by_direction_increments(mesh, trajectory, kind):
    """LVI or AEVI increments split by Cartesian direction, (n_interfaces, 3, 2N+2).

    The split is opt-in: each interface's sweep goes through
    ``gcl.sweep_volume_by_direction``.  Time is the last axis, so the series
    goes through the same ``extract_linear_and_periodic``, ``ifmv_nlfd`` and
    ``ifmv_ts`` as the totals do.
    """
    from gclkit import gcl

    quads = trajectory.positions[:, mesh.interface_vertex_ids]
    if kind == "lvi":
        swept = gcl.sweep_volume_by_direction(quads[0], quads)
    else:
        steps = gcl.sweep_volume_by_direction(quads[:-1], quads[1:])
        swept = np.concatenate([np.zeros_like(steps[:1]), np.cumsum(steps, axis=0)])
    return gcl.IncrementSeries(trajectory.period, trajectory.times, np.moveaxis(swept, 0, -1))


@pytest.fixture(scope="session")
def by_direction_increments():
    return _by_direction_increments
