"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one PASS/FAIL line
per criterion.  The full benchmark table (5 cases x N = 1..20 x 4 methods on
the 10x10x10 mesh) is built once per session and shared by criteria 1-7.

Five cells assert a closed form that the geometry gives exactly, because a
generic rate does not exist there (see the README's acceptance notes):

* criterion 2 on case 4 -- the cell volume is cubic in sin(2 pi t), so TRI-MAP
  is exact to 1e-12 from N = 3; at N = 1, 2 its defect must equal the
  aliasing error of the spectral volume derivative;
* criterion 3 on case 3 -- the cell volume is affine in the shared
  displacement (one harmonic), so TRI-MAP is exact to 1e-12 for every N;
* criterion 5 on case 4 -- straight vertex paths make every per-step sweep
  exact, so the AEVI errors sit at the 1e-11 rounding floor;
* criterion 10 -- the closing increment misses depth times the
  inscribed-polygon area defect, which is order 2 in Nts;
* criterion 11 -- a single step misses depth times the circular segment
  between chord and arc, which is order 3 in tau.
"""

import time

import numpy as np
import pytest

from gclkit import experiments, gcl
from gclkit.flow import FreestreamProblem
from gclkit.hexmesh import FACE_LOOPS
from gclkit.motion import CASE_IDS, MotionCase, case_fields, evaluate_motion, sample_motion
from gclkit.spectral import SpectralOperator, ts_matrix
from oracles import (
    analytic_increment_case3,
    angle_positions,
    cell_corners,
    dft_ifmv,
    dvoldt_trimap,
    face_area_vectors,
    fitted_order,
    gauss_volume_oracle,
    harmonic_weights,
    hex_volume,
    quad_flux,
    random_hexahedra,
    trimap_defect_prediction,
    zero_ifmv,
)

CASES = ("case1", "case2", "case3", "case4", "case5")
SWEEP_N = list(range(1, 21))
TABLE_METHODS = ["nlfd-lvi", "nlfd-aevi", "avg", "trimap"]


def _report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status}  {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({label}): {detail}"


@pytest.fixture(scope="session")
def sweep_table():
    """rows[(case, N, method)] -> ErrorReport, plus the build wall time."""
    mesh_cfg = experiments.MeshConfig()
    start = time.perf_counter()
    rows = {}
    for case_id in CASES:
        case = MotionCase.for_case(case_id)
        for row in experiments.run_sweep(mesh_cfg, case, SWEEP_N, TABLE_METHODS):
            rows[(case_id, row.n_harmonics, row.method)] = row
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.fixture(scope="session")
def paper_mesh_session():
    return experiments.MeshConfig().build()


def test_criterion_01_gcl_by_construction(sweep_table):
    rows, elapsed = sweep_table
    worst = max(
        rows[(c, n, m)].abs_err1
        for c in CASES
        for n in SWEEP_N
        for m in ("nlfd-lvi", "nlfd-aevi")
    )
    ok = worst <= 1e-10 and elapsed <= 300.0
    _report(
        1,
        "LVI/AEVI conservation defect <= 1e-10, all cases, N=1..20",
        ok,
        f"max abs_err1 {worst:.3e}, table build {elapsed:.0f}s",
    )


@pytest.mark.parametrize("case_id", ["case1", "case4"])
def test_criterion_02_trimap_exact_on_linear_motion(
    sweep_table, paper_mesh_session, case_id
):
    rows, _ = sweep_table
    errs = {n: rows[(case_id, n, "trimap")].abs_err1 for n in SWEEP_N}
    if case_id == "case1":
        # parallel displacements: the cell volume has one harmonic
        worst_n = max(errs, key=errs.get)
        ok = errs[worst_n] <= 1e-12
        _report(
            2,
            f"TRI-MAP abs_err1 <= 1e-12 for every N >= 1 on {case_id}",
            ok,
            f"worst {errs[worst_n]:.3e} at N={worst_n}",
        )
        return
    # Per-vertex directions make the cell volume cubic in sin(2 pi t), so the
    # spectral derivative of 2N+1 volume samples is exact only once N >= 3.
    # Below that, the TRI-MAP defect is the aliasing of that derivative.
    resolved = {n: e for n, e in errs.items() if n >= 3}
    worst_n = max(resolved, key=resolved.get)
    alias_gap = {}
    case = MotionCase.for_case(case_id)
    for n in (1, 2):
        point = experiments.prepare_point(paper_mesh_session, case, n)
        # the TRI-MAP face sums are what abs_err1 measures; the product-rule
        # rates are the independent oracle
        exact = gcl.exact_volume_rates(paper_mesh_session, point.trajectory)
        aliasing = np.abs(exact - point.spectral.differentiate(point.trajectory.volumes)).max()
        alias_gap[n] = abs(errs[n] - aliasing)
    ok = resolved[worst_n] <= 1e-12 and max(alias_gap.values()) <= 1e-12
    _report(
        2,
        f"TRI-MAP abs_err1 <= 1e-12 for N >= 3 on {case_id}, and equal to the"
        " aliasing max|dV/dt - D V| to 1e-12 at N = 1, 2",
        ok,
        f"worst {resolved[worst_n]:.3e} at N={worst_n}; N=1 {errs[1]:.3e}"
        f" (gap {alias_gap[1]:.1e}), N=2 {errs[2]:.3e} (gap {alias_gap[2]:.1e});"
        " the cell volume is cubic in sin(2 pi t), so spectral differentiation"
        " is exact only once N >= 3",
    )


@pytest.mark.parametrize("case_id", ["case2", "case3", "case5"])
def test_criterion_03_trimap_spectral_decay(sweep_table, case_id):
    rows, _ = sweep_table
    below_fd = any(
        rows[(case_id, n, "trimap")].abs_err1
        < min(rows[(case_id, n, "trimap")].fd1_ref, rows[(case_id, n, "trimap")].fd2_ref)
        for n in SWEEP_N
    )
    if case_id == "case3":
        # Every moving vertex shares one displacement d(t), so each triple
        # product with d in two columns vanishes: the cell volume is affine
        # in d and has one harmonic, and TRI-MAP is exact for every N.
        worst = max(rows[(case_id, n, "trimap")].abs_err1 for n in SWEEP_N)
        ok = worst <= 1e-12 and below_fd
        _report(
            3,
            f"TRI-MAP abs_err1 <= 1e-12 for every N on {case_id} (one-harmonic"
            " volume)",
            ok,
            f"max over N {worst:.3e}, below FD: {below_fd}; a shared"
            " displacement makes the cell volume affine in it, so there is no"
            " decay to measure",
        )
        return
    err2 = rows[(case_id, 2, "trimap")].abs_err1
    err20 = rows[(case_id, 20, "trimap")].abs_err1
    ratio = err2 / err20 if err20 > 0 else np.inf
    ok = ratio >= 1e3 and below_fd
    _report(
        3,
        f"TRI-MAP abs_err1 decays >= 1000x from N=2 to N=20 on {case_id}",
        ok,
        f"N=2 {err2:.3e}, N=20 {err20:.3e}, ratio {ratio:.1e}, below FD: {below_fd}",
    )


# The closed-form defect is exact, not asymptotic: the tolerance only covers
# the relative rounding of the Bessel values and of the harmonic sums, about
# 1e-15, while a wrong coefficient or alias moves the prediction by percents.
DEFECT_RTOL = 1e-9


def _largest_coordinate_and_surface(mesh, positions):
    """max |coordinate| and the largest cell surface area over (..., n_vertices, 3)."""
    faces = np.linalg.norm(face_area_vectors(cell_corners(mesh, positions)), axis=-1)
    return float(np.abs(positions).max()), float(faces.sum(axis=-1).max())


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_trimap_defect_is_the_closed_form_aliasing(case_id):
    # TRI-MAP's abs_err1 is max |dV/dt - D V|, and the cell volume is a
    # trigonometric cubic in the angle, so the defect is the aliasing of its
    # time harmonics by D, predicted in closed form for every N at once
    mesh_cfg = experiments.MeshConfig(6, 6, 6)
    mesh, case = mesh_cfg.build(), MotionCase.for_case(case_id)
    rows = experiments.run_sweep(mesh_cfg, case, SWEEP_N, ["trimap"])
    predicted = trimap_defect_prediction(mesh, case, SWEEP_N)
    # Rounding floor.  x + (cos a - 1) f1 + sin a f2 rounds each coordinate
    # within 3u|x|, and moving a cell's corners by d in every coordinate moves
    # its volume by at most d times its surface area (for a box the 24
    # corner derivatives of the volume sum to it).  D carries that volume
    # rounding into TRI-MAP's D V by at most its row sum |D|; the face sums'
    # own rounding, of order u |v| A with |v| below w |x| here, is smaller.  The
    # prediction's coefficients c_k, means of the seven angle samples, carry
    # the same volume rounding, which the alias factors w |m - m'| |B[m, :]|
    # of harmonic_weights scale.
    u, omega = 2.0**-53, 2.0 * np.pi / case.period
    fields = case_fields(mesh, case)
    x7, a7 = _largest_coordinate_and_surface(
        mesh, angle_positions(mesh, case, 2.0 * np.pi * np.arange(7) / 7)
    )
    m, weights = harmonic_weights(case)
    bad = []
    for row in rows:
        n = row.n_harmonics
        op = SpectralOperator(n, case.period)
        x_n, a_n = _largest_coordinate_and_surface(
            mesh, evaluate_motion(mesh, case, op.times, fields)[0]
        )
        alias = (m + n) % (2 * n + 1) - n
        spread = omega * np.sum(np.abs(m - alias) * np.abs(weights).sum(axis=1))
        floor = 3.0 * u * (x_n * a_n * np.abs(op.d_matrix).sum(axis=1).max() + x7 * a7 * spread)
        actual, pred = row.abs_err1, predicted[n]
        if pred > floor:  # the prediction stands above rounding: relative tolerance
            ok = abs(actual - pred) <= DEFECT_RTOL * pred + floor
        else:  # both at rounding: TRI-MAP's defect sits at the floor
            ok = actual <= pred + floor
        if not ok:
            bad.append(f"N={n}: abs_err1 {actual:.3e}, predicted {pred:.3e}, floor {floor:.1e}")
    assert not bad, f"{case_id} TRI-MAP defect off its closed form: " + "; ".join(bad)


@pytest.mark.parametrize("case_id", ["case4", "case5"])
def test_criterion_04_avg_failure_plateau(sweep_table, case_id):
    rows, _ = sweep_table
    worst = min(rows[(case_id, n, "avg")].abs_err1 for n in SWEEP_N)
    ok = worst >= 1e-5
    _report(
        4,
        f"AVG abs_err1 >= 1e-5 for all N on {case_id}",
        ok,
        f"min over N {worst:.3e}",
    )


@pytest.mark.parametrize("case_id", ["case4", "case5"])
def test_criterion_05_aevi_order_bracket(sweep_table, case_id):
    rows, _ = sweep_table
    ns = np.array([5, 10, 15, 20])
    errs = np.array([rows[(case_id, n, "nlfd-aevi")].abs_err2_x for n in ns])
    at_floor = (errs <= 1e-11).all()
    if case_id == "case4":
        # Vertices move on straight lines x0 + e sin(2 pi t), so every
        # per-step sweep is exact and each face increment is cubic in
        # sin(2 pi t), resolved once N >= 3: the errors are rounding noise.
        _report(
            5,
            f"AEVI x-direction error <= 1e-11 at N = 5, 10, 15, 20 on {case_id}"
            " (exact sweeps)",
            at_floor,
            f"errors {np.array2string(errs, precision=2)}; straight vertex paths"
            " make the per-step sweeps exact, so there is no order to fit",
        )
        return
    try:
        order = fitted_order(2 * ns + 1, errs)
        detail = f"fitted order {order:.2f}"
        ok = 0.8 <= order <= 2.2
    except ValueError:
        detail = "no points above the fitting floor"
        ok = False
    _report(
        5,
        f"AEVI x-direction error order in [0.8, 2.2] on {case_id}",
        ok,
        detail,
    )


def test_criterion_06_case2_y_exactness(sweep_table):
    rows, _ = sweep_table
    worst = max(
        rows[("case2", n, m)].abs_err2_y
        for n in range(4, 21)
        for m in ("nlfd-lvi", "nlfd-aevi")
    )
    ok = worst <= 1e-10
    _report(
        6,
        "case2 LVI/AEVI y-direction error <= 1e-10 for N >= 4",
        ok,
        f"max {worst:.3e}",
    )


def test_criterion_07_case3_lvi_stagnation(sweep_table):
    rows, _ = sweep_table
    base = rows[("case3", 2, "nlfd-lvi")].abs_err2_x
    lowest = min(rows[("case3", n, "nlfd-lvi")].abs_err2_x for n in range(2, 21))
    ok = lowest >= 0.5 * base
    _report(
        7,
        "case3 LVI x-direction error never falls below half its N=2 value",
        ok,
        f"N=2 {base:.3e}, min {lowest:.3e}",
    )


def test_criterion_08_trilinear_identity():
    rng = np.random.default_rng(8)
    hexes = random_hexahedra(1000, rng)
    vels = rng.normal(size=(1000, 8, 3))
    total = quad_flux(hexes[:, FACE_LOOPS], vels[:, FACE_LOOPS])
    rate = dvoldt_trimap(hexes, vels)
    rel = np.abs(total.sum(-1) - rate) / (np.abs(rate) + np.abs(total).sum(-1))
    ok = rel.max() <= 1e-13
    _report(
        8,
        "sum of face fluxes equals exact volume rate on 1000 random cells",
        ok,
        f"max relative defect {rel.max():.3e}",
    )


def test_criterion_09_volume_oracle():
    rng = np.random.default_rng(9)
    hexes = random_hexahedra(1000, rng, scale=0.2)
    exact = gauss_volume_oracle(hexes)
    rel = np.abs(hex_volume(hexes) - exact) / np.abs(exact)
    ok = rel.max() <= 1e-13
    _report(
        9,
        "closed-form volume matches 3x3x3 Gauss quadrature on 1000 random cells",
        ok,
        f"max relative error {rel.max():.3e}",
    )


def _case3_face(times, radius=0.05, y30=0.28, depth=0.24):
    t = np.atleast_1d(times)
    dx = radius * (1 - np.cos(2 * np.pi * t))
    dy = radius * np.sin(2 * np.pi * t)
    zeros = np.zeros_like(t)
    a = np.stack([zeros, zeros, zeros], -1)
    b = np.stack([dx, y30 + dy, zeros], -1)
    c = np.stack([dx, y30 + dy, np.full_like(t, depth)], -1)
    d = np.stack([zeros, zeros, np.full_like(t, depth)], -1)
    return np.stack([a, b, c, d], axis=-2)


def test_criterion_10_zeroth_coefficient_order():
    radius, y30, depth = 0.05, 0.28, 0.24
    target = depth * np.pi * radius**2
    nts_values = np.array([11, 21, 41, 81])
    errs = []
    for nts in nts_values:
        times = np.append(np.arange(nts) / nts, 1.0)
        quads = _case3_face(times, radius, y30, depth)
        slope = gcl.sweep_volume(quads[:-1], quads[1:]).sum()
        errs.append(abs(slope - target))
    errs = np.array(errs)
    # Each chord sweep is the prism (A, B_k, B_k+1) x depth, so the closing
    # increment is depth times the inscribed Nts-gon area and misses
    # depth*R^2*(pi - (Nts/2) sin(2 pi/Nts)) ~ depth*R^2*(2 pi^3/3)/Nts^2.
    polygon_defect = depth * radius**2 * (
        np.pi - 0.5 * nts_values * np.sin(2 * np.pi / nts_values)
    )
    gap = np.abs(errs - polygon_defect).max() / target
    converged = errs[-1] < errs[0] and errs[-1] / target < 1e-2
    order = fitted_order(nts_values, errs)
    ok = converged and gap <= 1e-12 and abs(order - 2.0) <= 0.3
    _report(
        10,
        "case3 closing increment misses depth*pi*R^2/T by the inscribed-polygon"
        " defect (1e-12 relative), order 2.0 +- 0.3",
        ok,
        f"fitted order {order:.2f}, errors {np.array2string(errs, precision=2)},"
        f" gap to the polygon defect {gap:.1e} of the target; endpoint-matched"
        " chord sweeps cancel the O(tau^2) term, so the order is two",
    )


def test_criterion_11_single_step_order():
    radius, y30, depth = 0.05, 0.28, 0.24
    t0 = 0.2
    taus = np.array([1 / 10, 1 / 20, 1 / 40, 1 / 80])
    errs, gaps = [], []
    for tau in taus:
        quads = _case3_face(np.array([t0, t0 + tau]), radius, y30, depth)
        sweep = gcl.sweep_volume(quads[0], quads[1])
        exact = analytic_increment_case3(radius, y30, depth, t0 + tau) - (
            analytic_increment_case3(radius, y30, depth, t0)
        )
        errs.append(abs(sweep - exact))
        # the chord sweep misses only the circular segment between chord and
        # arc: depth*R^2*(theta - sin theta)/2 with theta = 2 pi tau, O(tau^3)
        theta = 2 * np.pi * tau
        segment = depth * radius**2 * (theta - np.sin(theta)) / 2
        gaps.append(abs(errs[-1] - segment) / abs(exact))
    order = fitted_order(1.0 / taus, np.array(errs))
    ok = max(gaps) <= 1e-12 and abs(order - 3.0) <= 0.2
    _report(
        11,
        "case3 single-step sweep misses the circular segment (1e-12 of the"
        " increment), order 3.0 +- 0.2 in tau",
        ok,
        f"fitted order {order:.2f}, gap to the segment area {max(gaps):.1e} of"
        " the increment; the chord sweep matches the true path at both"
        " endpoints, which cancels the O(tau^2) term and leaves the segment",
    )


def test_criterion_12_nlfd_ts_equivalence(paper_mesh_session, by_direction_increments):
    mesh = paper_mesh_session
    worst = 0.0
    for case_id in CASES:
        case = MotionCase.for_case(case_id)
        for n in (3, 10, 20):
            traj = sample_motion(mesh, case, n)
            op = SpectralOperator(n, case.period)
            for kind, maker in (("lvi", gcl.lvi_increments), ("aevi", gcl.aevi_increments)):
                for series in (maker(mesh, traj), by_direction_increments(mesh, traj, kind)):
                    series = gcl.extract_linear_and_periodic(series)
                    reference = dft_ifmv(series, op)
                    for ifmv in (gcl.ifmv_nlfd, gcl.ifmv_ts):
                        err = np.abs(ifmv(series, op).total - reference).max()
                        worst = max(worst, float(err))
    ok = worst <= 1e-12
    _report(
        12,
        "time-spectral and DFT pipelines agree to 1e-12 on all cases",
        ok,
        f"max difference {worst:.3e}",
    )


def test_criterion_13_freestream_preservation(paper_mesh_session):
    mesh = paper_mesh_session
    case = MotionCase.for_case("case2")
    traj = sample_motion(mesh, case, 5)
    op = SpectralOperator(5, case.period)
    series = gcl.extract_linear_and_periodic(gcl.aevi_increments(mesh, traj))
    good = FreestreamProblem(mesh, traj, op, gcl.ifmv_nlfd(series, op)).march()
    broken = FreestreamProblem(mesh, traj, op, zero_ifmv(mesh, traj)).march()
    ok = good.converged and good.rel_err <= 1e-8 and broken.converged and broken.rel_err >= 1e-4
    _report(
        13,
        "uniform flow preserved with AEVI (<= 1e-8) and lost without IFMV (>= 1e-4)",
        ok,
        f"AEVI rel_err {good.rel_err:.3e} ({good.iterations} Newton steps, "
        f"{good.krylov_iterations} Krylov iterations), "
        f"zero-IFMV rel_err {broken.rel_err:.3e} ({broken.iterations} Newton steps, "
        f"{broken.krylov_iterations} Krylov iterations, {broken.stop_reason})",
    )


def test_criterion_13_trimap_drift_follows_volume_aliasing(paper_mesh_session):
    # The GCL holds once dV/dt is converged in Fourier space: the case-4 cell
    # volume is cubic in sin(2 pi t), so TRI-MAP's face sums equal the
    # spectral D V, and the uniform flow stays uniform, only from N = 3.
    mesh = paper_mesh_session
    case = MotionCase.for_case("case4", seed=42)
    drift = {}
    for n in (1, 2, 3):
        traj = sample_motion(mesh, case, n)
        problem = FreestreamProblem(
            mesh, traj, SpectralOperator(n, case.period), gcl.trimap_field(mesh, traj)
        )
        result = problem.march()
        assert result.converged, (n, result.stop_reason)
        drift[n] = result.rel_err
    ok = min(drift[1], drift[2]) > 1e-6 and drift[3] <= 1e-10
    _report(
        13,
        "TRI-MAP freestream drift on case4 > 1e-6 at N = 1, 2 and <= 1e-10 at N = 3",
        ok,
        f"rel_err N=1 {drift[1]:.3e}, N=2 {drift[2]:.3e}, N=3 {drift[3]:.3e};"
        " criterion 2's closed form: the cell volume is cubic in sin(2 pi t), so"
        " the spectral derivative of 2N+1 volume samples aliases at N = 1, 2 and"
        " is exact once N >= 3",
    )


def test_criterion_14_spectral_unit_suite():
    rng = np.random.default_rng(14)
    worst_rt = 0.0
    for nts in range(3, 42, 2):
        op = SpectralOperator((nts - 1) // 2)
        s = rng.normal(size=nts)
        worst_rt = max(worst_rt, float(np.abs(op.idft(op.dft(s)) - s).max()))
    d = ts_matrix(10, 1.0)
    skew_exact = np.array_equal(d, -d.T)
    const = float(np.abs(d @ np.ones(21)).max())
    d01 = ts_matrix(1, 1.0)[0, 1]
    d01_err = abs(d01 - 2 * np.pi / np.sqrt(3.0))
    ok = worst_rt <= 1e-13 and skew_exact and const <= 1e-12 and d01_err <= 1e-12
    _report(
        14,
        "DFT round trip, skew symmetry, constant annihilation, d01 = 2*pi/sqrt(3)",
        ok,
        f"round trip {worst_rt:.2e}, const {const:.2e}, d01 err {d01_err:.2e}",
    )
