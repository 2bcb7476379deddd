import sys
import threading

import numpy as np
import pytest

from gclkit.hexmesh import build_box_mesh

PAPER_MESH = (10, 10, 10, 3.2, 2.8, 2.4)


@pytest.fixture(autouse=True)
def no_pool_thread_outlives_its_test():
    """Fail a test that leaves a ``ThreadPoolExecutor`` worker thread alive:
    a sweep's pool is shut down, its threads joined, before ``run_sweep``
    returns or raises."""
    before = set(threading.enumerate())
    yield
    leaked = [
        thread.name for thread in threading.enumerate()
        if thread not in before and thread.name.startswith("ThreadPoolExecutor-")
    ]
    assert not leaked, f"pool threads left running: {leaked}"


@pytest.fixture()
def under_each_worker_count(monkeypatch):
    """Run ``sweep()`` under 1, 2 and 4 workers and return its outcome under
    each, a value or the error it raised, keyed by ``GCLKIT_THREADS``.
    Pooled runs switch threads every 10 us; no thread outlives a run."""

    def run(sweep):
        outcomes, interval = {}, sys.getswitchinterval()
        try:
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("GCLKIT_THREADS", threads)
                sys.setswitchinterval(1e-5 if threads != "1" else interval)
                alive = threading.active_count()
                try:
                    outcomes[threads] = sweep()
                except Exception as err:
                    outcomes[threads] = err
                assert threading.active_count() == alive, threads
        finally:
            sys.setswitchinterval(interval)
        return outcomes

    return run


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
    quads = np.concatenate([quads, quads[:1]])  # the closing sample at t = T is t_0
    if kind == "lvi":
        swept = gcl.sweep_volume_by_direction(quads[0], quads)
    else:
        steps = gcl.sweep_volume_by_direction(quads[:-1], quads[1:])
        swept = np.concatenate([np.zeros_like(steps[:1]), np.cumsum(steps, axis=0)])
    return gcl.IncrementSeries(trajectory.case.period, np.moveaxis(swept, 0, -1))


@pytest.fixture(scope="session")
def by_direction_increments():
    return _by_direction_increments
