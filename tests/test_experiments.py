"""One (case, N) evaluation point computes each geometric quantity once.

``prepare_point`` takes the exact dV/dt from the signed TRI-MAP face sums and
gates degeneracy on the cell volumes its trajectory carries; these tests keep
the product-rule rates as the independent oracle and pin the gate's error on
a degenerate point.
"""

import dataclasses
import threading

import numpy as np
import pytest

from gclkit import experiments, flow, gcl, hexmesh, motion
from gclkit.cli import main
from gclkit.motion import DegenerateMeshError, MotionCase, case_fields

CASES = ("case1", "case2", "case3", "case4", "case5")


@pytest.mark.parametrize("case_id", CASES)
def test_exact_rates_match_product_rule(paper_mesh, case_id):
    case = MotionCase.for_case(case_id)
    fields = case_fields(paper_mesh, case)
    for n in (1, 2, 20):
        point = experiments.prepare_point(paper_mesh, case, n, fields)
        oracle = gcl.exact_volume_rates(paper_mesh, point.trajectory)
        exact_rates = paper_mesh.sum_over_faces(point.reference.total)
        gap = np.abs(exact_rates - oracle).max()
        # both round at the size of the face fluxes they add up: on case 2 the
        # cell rates are ~100x smaller than the fluxes (a shear nearly keeps
        # volume), and the gap reaches 2.5e-11 of the largest rate
        assert gap <= 1e-12 * np.abs(point.reference.total).max(), (n, gap)


def test_prepare_point_makes_one_volume_pass(paper_mesh, monkeypatch):
    # the gate, the metrics and the freestream problem share one pass
    seen = []

    def counted(kernel):
        def wrapper(r):
            seen.append(r[0][0].size)  # anchor-instants in this block
            return kernel(r)

        return wrapper

    def forbidden(*args):
        raise AssertionError("the product-rule rates ran")

    for module in (gcl, hexmesh, motion):
        monkeypatch.setattr(module, "_hex_volume", counted(module._hex_volume))
    monkeypatch.setattr(gcl, "exact_volume_rates", forbidden)
    monkeypatch.setattr(gcl, "_dvoldt", forbidden)
    monkeypatch.setattr(flow, "NEWTON_MAX", 1)
    point = experiments.prepare_point(paper_mesh, MotionCase.for_case("case5"), 3)
    experiments.evaluate_point(point, ["trimap"], freestream=True)
    # each cell at each instant once: a block also holds the anchors at the
    # ends of the grid's rows and planes, which are no cells
    ((_, _, anchors),) = hexmesh._element_families(paper_mesh.counts, "cells")
    assert sum(seen) == len(anchors) * point.spectral.nts


# case 4, rbf_amplitude=0.2, N = 2, 10^3: the degenerate cells at the first
# bad instant, t = 0.2
DEGENERATE_CELLS = [
    69, 89, 91, 169, 191, 209, 269, 289, 309, 329, 369, 370, 380, 389, 398, 491,
    495, 497, 529, 569, 597, 599, 679, 695, 779, 795, 796, 797, 819, 899, 995, 999,
]


def test_degenerate_point_raises_the_same_error(paper_mesh, tmp_path, capsys):
    case = MotionCase.for_case("case4", rbf_amplitude=0.2)
    with pytest.raises(DegenerateMeshError) as info:
        experiments.prepare_point(paper_mesh, case, 2)
    assert info.value.instant == 0.2
    assert info.value.cell_ids.tolist() == DEGENERATE_CELLS
    first = ", ".join(map(str, DEGENERATE_CELLS[:10]))
    assert str(info.value) == f"degenerate cells [{first}, ...] (32 in all) at t = 0.2"
    code = main(["run", "--case", "4", "--amp", "0.2", "--n", "2..2", "--methods", "avg",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err == f"error: degeneracy: {info.value}\n"


ALL_METHODS = [row for row, _ in experiments.METHODS.values()]


def test_face_sums_run_once_per_distinct_field(paper_mesh, monkeypatch):
    point = experiments.prepare_point(paper_mesh, MotionCase.for_case("case5"), 3)
    calls = []
    summed = hexmesh.HexMesh.sum_over_faces

    def counted(mesh, values):
        calls.append(values.shape)
        return summed(mesh, values)

    monkeypatch.setattr(hexmesh.HexMesh, "sum_over_faces", counted)
    rows = experiments.evaluate_point(point, ALL_METHODS)
    # every row sums its field's faces, TRI-MAP's included, and the ts-* rows
    # copy the nlfd-* rows: LVI, AEVI, AVG and TRI-MAP are summed once each
    assert len(calls) == 4
    trimap = rows[ALL_METHODS.index("trimap")]
    face_sums = summed(paper_mesh, point.reference.total)
    assert trimap.abs_err1 == np.max(np.abs(face_sums - point.dvoldt))


def _counted(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _fields(row, **changes):
    return dataclasses.asdict(dataclasses.replace(row, **changes))


def test_ts_rows_copy_their_nlfd_twins(small_mesh, monkeypatch):
    point = experiments.prepare_point(small_mesh, MotionCase.for_case("case5"), 2)
    calls = {}
    _counted(monkeypatch, gcl, "lvi_increments", calls)
    _counted(monkeypatch, gcl, "aevi_increments", calls)
    _counted(monkeypatch, flow.FreestreamProblem, "march", calls)
    methods = ["nlfd-lvi", "ts-lvi", "ts-aevi"]
    rows = experiments.evaluate_point(point, methods, freestream=True)
    assert calls == {"lvi_increments": 1, "aevi_increments": 1, "march": 2}
    assert [row.method for row in rows] == methods
    assert rows[0].rel_err_freestream is not None
    assert _fields(rows[1], method="nlfd-lvi") == _fields(rows[0])
    (aevi,) = experiments.evaluate_point(point, ["nlfd-aevi"], freestream=True)
    assert _fields(rows[2], method="nlfd-aevi") == _fields(aevi)
    (alone,) = experiments.evaluate_point(point, ["ts-aevi"])
    assert alone.method == "ts-aevi"
    assert _fields(alone) == _fields(rows[2], rel_err_freestream=None)


def test_divergence_names_the_first_method_that_reads_the_field(small_mesh, monkeypatch):
    point = experiments.prepare_point(small_mesh, MotionCase.for_case("case5"), 1)

    def diverged(self, *args, **kwargs):
        return flow.FreestreamResult(np.inf, 1, 1.0, np.inf, "diverged")

    monkeypatch.setattr(flow.FreestreamProblem, "march", diverged)
    for methods in (["ts-aevi"], ["ts-lvi", "nlfd-lvi"]):
        with pytest.raises(flow.FreestreamDivergence) as info:
            experiments.evaluate_point(point, methods, freestream=True)
        assert info.value.method == methods[0]


def test_first_degenerate_n_raises_under_every_worker_count(under_each_worker_count):
    # on 10^3 at this amplitude N = 1 passes the gate and N = 2, 3 and 4 fail
    # it, each at its own instant; pooled, N = 3 or 4 can fail first
    case = MotionCase.for_case("case4", rbf_amplitude=0.12)
    outcomes = under_each_worker_count(
        lambda: experiments.run_sweep(
            experiments.MeshConfig(), case, [1, 2, 3, 4], ["avg", "trimap"]
        )
    )
    one = outcomes["1"]
    assert isinstance(one, DegenerateMeshError) and one.instant == 0.8
    for threads in ("2", "4"):
        err = outcomes[threads]
        assert isinstance(err, DegenerateMeshError), threads
        assert (err.instant, err.cell_ids.tolist(), str(err)) == (
            one.instant, one.cell_ids.tolist(), str(one)
        ), threads


def test_first_divergence_raises_under_every_worker_count(monkeypatch, under_each_worker_count):
    # every field diverges from N = 3 on, and at N = 2 the AVG field alone:
    # one worker names N = 2 and avg, whatever the pool finishes first
    avg_fields, marched = [], []
    real_avg, real_init = gcl.ifmv_avg, flow.FreestreamProblem.__init__

    def avg(*args):
        avg_fields.append(real_avg(*args))
        return avg_fields[-1]

    def init(self, mesh, trajectory, spectral, ifmv):
        real_init(self, mesh, trajectory, spectral, ifmv)
        n = spectral.n_harmonics
        self.fails = n >= 3 or (n == 2 and any(field is ifmv for field in avg_fields))

    def march(self):
        marched.append(self.spectral.n_harmonics)
        if self.fails:
            return flow.FreestreamResult(np.inf, 1, 1.0, np.inf, "diverged")
        return flow.FreestreamResult(0.0, 1, 1.0, 0.0, "floor")

    monkeypatch.setattr(gcl, "ifmv_avg", avg)
    monkeypatch.setattr(flow.FreestreamProblem, "__init__", init)
    monkeypatch.setattr(flow.FreestreamProblem, "march", march)
    methods = ["nlfd-lvi", "ts-aevi", "avg", "trimap", "nlfd-aevi"]

    def sweep():
        return experiments.run_sweep(
            experiments.MeshConfig(5, 5, 5), MotionCase.for_case("case1"), [1, 2, 3, 4],
            methods, freestream=True,
        )

    for threads, err in under_each_worker_count(sweep).items():
        assert isinstance(err, flow.FreestreamDivergence), threads
        assert (err.case_id, err.method, err.n_harmonics) == ("case1", "avg", 2), threads
    # one worker stops at the error: N = 1's four fields, then N = 2's LVI,
    # AEVI and AVG, and no later task
    marched.clear()
    monkeypatch.setenv("GCLKIT_THREADS", "1")
    with pytest.raises(flow.FreestreamDivergence):
        sweep()
    assert marched == [1, 1, 1, 1, 2, 2, 2]


def test_earlier_field_error_beats_later_degenerate_point(monkeypatch, under_each_worker_count):
    # on 10^3 at this amplitude N = 1 passes the gate and N = 2, 3 and 4 fail
    # it; only AVG fields diverge, so N = 1's AVG row holds the first error,
    # though pooled a later N's prepare can fail before that field is built
    avg_fields = []
    real_avg, real_init = gcl.ifmv_avg, flow.FreestreamProblem.__init__

    def avg(*args):
        avg_fields.append(real_avg(*args))
        return avg_fields[-1]

    def init(self, mesh, trajectory, spectral, ifmv):
        real_init(self, mesh, trajectory, spectral, ifmv)
        self.fails = any(field is ifmv for field in avg_fields)

    def march(self):
        if self.fails:
            return flow.FreestreamResult(np.inf, 1, 1.0, np.inf, "diverged")
        return flow.FreestreamResult(0.0, 1, 1.0, 0.0, "floor")

    monkeypatch.setattr(gcl, "ifmv_avg", avg)
    monkeypatch.setattr(flow.FreestreamProblem, "__init__", init)
    monkeypatch.setattr(flow.FreestreamProblem, "march", march)
    case = MotionCase.for_case("case4", rbf_amplitude=0.12)
    outcomes = under_each_worker_count(
        lambda: experiments.run_sweep(
            experiments.MeshConfig(), case, [1, 2, 3, 4], ["nlfd-lvi", "avg", "trimap"],
            freestream=True,
        )
    )
    for threads, err in outcomes.items():
        assert isinstance(err, flow.FreestreamDivergence), (threads, err)
        assert (err.case_id, err.method, err.n_harmonics) == ("case4", "avg", 1), threads


def test_sweep_holds_at_most_one_point_per_worker(monkeypatch, under_each_worker_count):
    # a point is live from its prepare's return until its last field task
    # returns; the four methods read three fields
    methods = ["avg", "trimap", "nlfd-lvi", "ts-lvi"]
    real_prepare, real_evaluate = experiments.prepare_point, experiments.evaluate_point
    lock, live, peak = threading.Lock(), {}, [0]  # live: N -> its fields yet to return

    def prepare(mesh, case, n, fields):
        point = real_prepare(mesh, case, n, fields)
        with lock:
            live[n] = 3
            peak[0] = max(peak[0], len(live))
        return point

    def evaluate(point, *args):
        rows = real_evaluate(point, *args)
        with lock:
            n = point.trajectory.n_harmonics
            live[n] -= 1
            if not live[n]:
                del live[n]
        return rows

    monkeypatch.setattr(experiments, "prepare_point", prepare)
    monkeypatch.setattr(experiments, "evaluate_point", evaluate)

    def sweep():
        peak[0] = 0
        rows = experiments.run_sweep(
            experiments.MeshConfig(4, 4, 4), MotionCase.for_case("case1"), list(range(1, 9)),
            methods,
        )
        return peak[0], len(rows)

    for threads, (held, n_rows) in under_each_worker_count(sweep).items():
        assert held <= int(threads) and n_rows == 32, (threads, held, n_rows)


def test_one_worker_runs_every_task_on_the_calling_thread(monkeypatch):
    # one worker has no pool: the point tasks, the field tasks and the RBF
    # build's grid half all run on the calling thread; two run them on pool threads
    from gclkit import rbf

    ran_on = {}  # task -> the threads it ran on

    def record(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            ran_on.setdefault(name, []).append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    record(experiments, "prepare_point")
    record(experiments, "evaluate_point")
    record(rbf, "_grid_weights")
    for threads in ("1", "2"):
        ran_on.clear()
        monkeypatch.setenv("GCLKIT_THREADS", threads)
        experiments.run_sweep(
            experiments.MeshConfig(4, 4, 4), MotionCase.for_case("case5"), [1, 2, 3],
            ["avg", "nlfd-lvi"],
        )
        counts = {name: len(ran) for name, ran in ran_on.items()}
        assert counts == {"_grid_weights": 1, "prepare_point": 3, "evaluate_point": 6}, threads
        for name, ran in ran_on.items():
            if threads == "1":
                assert all(t is threading.main_thread() for t in ran), name
            else:
                assert all(t.name.startswith("ThreadPoolExecutor-") for t in ran), name


@pytest.mark.parametrize(
    "grid_fails, factor_fails, message",
    [
        (True, False, "grid half failed"),
        (False, True, "singular RBF system"),
        (True, True, "grid half failed"),  # the grid half runs first on one worker
    ],
)
def test_first_rbf_build_error_under_every_worker_count(
    monkeypatch, under_each_worker_count, grid_fails, factor_fails, message
):
    # pooled, the grid half is a task on a pool thread while the calling
    # thread factors; one worker runs it first, on the calling thread
    from gclkit import rbf

    ran_on = []
    grid_weights = rbf._grid_weights

    def grid_half(*args):
        ran_on.append(threading.current_thread().name)
        if grid_fails:
            raise ValueError("grid half failed")
        return grid_weights(*args)

    factor = rbf._factor

    def singular(blocks):  # the factor meets a negative pivot
        return factor(-blocks)

    monkeypatch.setattr(rbf, "_grid_weights", grid_half)
    if factor_fails:
        monkeypatch.setattr(rbf, "_factor", singular)
    outcomes = under_each_worker_count(
        lambda: experiments.run_sweep(
            experiments.MeshConfig(4, 4, 4), MotionCase.for_case("case5"), [1, 2], ["avg"]
        )
    )
    for threads, err in outcomes.items():
        assert isinstance(err, experiments.ConfigError), threads
        assert str(err) == f"cannot build the fields of case5: {message}", threads
    assert ran_on[0] == "MainThread"
    assert all(name.startswith("ThreadPoolExecutor-") for name in ran_on[1:])
    assert len(ran_on) == 3
