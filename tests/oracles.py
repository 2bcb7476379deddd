"""Independent reference routes that the tests hold gclkit against.

Nothing in the package calls these.  Each reaches a quantity the package
computes another way: the time derivative through the DFT instead of the
time-spectral matrix, a closed-form swept volume, a Gauss quadrature of the
face flux, the per-harmonic residual, a least-squares convergence order, and
the cell-slot table of faces gathered by matching vertex sets.  The
component-last (..., k, 3) forms of the package's corner-plane kernels
(``hex_volume``, ``quad_area_vectors``, ``face_area_vectors``, ``quad_flux``,
``quad_flux_by_direction``, ``dvoldt_trimap``) and the gather of every
cell's corners (``cell_corners``) are thin calls of those kernels, so the
tests can hand them plain arrays, as are the mesh's interior vertices and
the flow's pressure, checked for a physical state, and the face flux with
the primitives it takes computed from the states;
random admissible hexahedra and a Gauss quadrature of the cell volume go
with them.  The corner Jacobians are stacked here from the package's kernel,
whose only package reader, the degeneracy gate, takes their minimum.  The cell volume as a sum
of six face terms, its product-rule rate and the face flux from six corner
cross products are the absolute-position forms the package's edge-vector
kernels replaced: the same polynomials, with rounding that grows with the
distance from the origin.  The RBF solve through one SuperLU factor of the
whole sparse Gram matrix is the route the mirror-symmetry blocks replaced,
and the sum over every grid point's own near pairs is the evaluation that
the grid's orbit representatives replaced.  The five-stage Runge-Kutta
pseudo-time march is the route to the converged freestream state that the
Newton-Krylov solve replaced, and the dense first-order Jacobian, assembled
face by face, is the matrix whose per-axis factors the solve's line-implicit
preconditioner inverts line by line; the preconditioner's own factors and
line solves, run in complex128, give the apply that its single-precision
one approximates.  The JST dissipation along the last
axis, out of place, is the form the axis-major kernel replaced, and a zero
IFMV field gives the freestream solve a known conservation defect.  The
gather of every element's corners, block by block, is the route that
slicing the structured vertex grid at fixed corner offsets replaced in
``HexMesh.blockwise``.  A box mesh with its interior vertices displaced
gives the kernels faces that are not rectangles.  The four hand-written
laws (a straight-line shift, a rotation about a pivot, case 3's orbit and
case 5's pitch), each stating its positions and its own velocities, are the
route that the one law x + (cos a - 1) f1 + sin a f2 replaced.
"""

import dataclasses

import numpy as np

from gclkit import flow, gcl, hexmesh, motion, rbf
from gclkit.flow import (
    CONVERGENCE_DROP,
    GAMMA,
    PRESSURE_INF,
    RHO_INF,
    VELOCITY_INF,
    FreestreamResult,
)
from gclkit.hexmesh import FACE_LOOPS, REF_CORNERS
from gclkit.rbf import wendland_c0

# errors at or below this are rounding noise, not a convergence curve
ORDER_FLOOR = 1e-13


def corner_jacobians(corners):
    """Jacobian determinant of the trilinear map at the 8 reference corners.

    Returns an array of shape (..., 8): at each corner, the triple product of
    the three cell edges leaving it along xi, eta and zeta.
    """
    return np.stack(hexmesh._corner_jacobians(hexmesh.corner_planes(corners)), axis=-1)


def hex_volume(corners):
    """Signed volume of hexahedra from their corner positions (..., 8, 3)."""
    return hexmesh._hex_volume(hexmesh.corner_planes(corners))


def quad_area_vectors(quads):
    """Area vectors of bilinear quads (..., 4, 3) along their loops' normals."""
    return np.stack(hexmesh._quad_area(hexmesh.corner_planes(quads)), axis=-1)


def face_area_vectors(corners):
    """Outward area vectors (..., 6, 3) of the six faces of each cell (..., 8, 3)."""
    return quad_area_vectors(np.asarray(corners, dtype=float)[..., FACE_LOOPS, :])


def quad_flux(quad, velocities):
    """Total face flux integral (v . n) dS of bilinear quads (..., 4, 3)."""
    return gcl._quad_flux(*gcl._planes_of(quad, velocities))


def quad_flux_by_direction(quad, velocities):
    """Per-direction face flux integral v_d n_d dS of bilinear quads (..., 4, 3)."""
    return np.stack(gcl._quad_flux_by_direction(*gcl._planes_of(quad, velocities)), axis=-1)


def dvoldt_trimap(corners, velocities):
    """Exact volume rate of hexahedra from corner positions and velocities (..., 8, 3)."""
    return gcl._dvoldt(*gcl._planes_of(corners, velocities))


def cell_corners(mesh, positions=None):
    """Corner positions (..., n_cells, 8, 3) of all cells of ``mesh`` for vertex
    positions (..., n_vertices, 3), by default the undeformed vertices."""
    positions = mesh.vertices if positions is None else positions
    return np.asarray(positions)[..., mesh.cell_vertex_ids, :]


def interior_vertex_ids(mesh):
    """Ids of the vertices off the mesh's boundary."""
    return np.flatnonzero(~mesh.boundary_vertex_mask())


def random_hexahedra(count, rng, scale=0.25):
    """Random perturbations of the unit cube, guaranteed non-degenerate."""
    return REF_CORNERS + rng.uniform(-scale, scale, (count, 8, 3))


def gauss_volume_oracle(corners, points=3):
    """Volume via tensor Gauss-Legendre quadrature of the Jacobian determinant.

    The determinant of the trilinear map has per-axis polynomial degree two,
    so three points per axis integrate it exactly.  Kept independent of the
    closed-form volume it cross-checks.
    """
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights

    def gradients(xi, eta, zeta):
        """Trilinear shape gradients at one reference point, (8, 3)."""
        return np.array(
            [
                [-(1 - eta) * (1 - zeta), -(1 - xi) * (1 - zeta), -(1 - xi) * (1 - eta)],
                [(1 - eta) * (1 - zeta), -xi * (1 - zeta), -xi * (1 - eta)],
                [eta * (1 - zeta), xi * (1 - zeta), -xi * eta],
                [-eta * (1 - zeta), (1 - xi) * (1 - zeta), -(1 - xi) * eta],
                [-(1 - eta) * zeta, -(1 - xi) * zeta, (1 - xi) * (1 - eta)],
                [(1 - eta) * zeta, -xi * zeta, xi * (1 - eta)],
                [eta * zeta, xi * zeta, xi * eta],
                [-eta * zeta, (1 - xi) * zeta, (1 - xi) * eta],
            ]
        )

    corners = np.asarray(corners, dtype=float)
    total = np.zeros(corners.shape[:-2])
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            for k, wk in enumerate(weights):
                dn = gradients(nodes[i], nodes[j], nodes[k])
                jac = np.einsum("nd,...nv->...vd", dn, corners)
                total += wi * wj * wk * np.linalg.det(jac)
    return total


def gathered_blockwise(mesh, kernel, kind, *fields, out=None, dtype=float):
    """``HexMesh.blockwise`` by a gather of each block's element corners.

    The vertex ids of the elements of ``kind`` index each field's component
    planes, so ``kernel`` receives every field as one gathered array of
    corner planes (k, 3, n_instants, block), blocks of
    ``hexmesh.BLOCK_ELEMENT_INSTANTS`` element-instants.  Takes the method's
    arguments, so it can stand in for it.
    """
    vertex_ids = {"cells": mesh.cell_vertex_ids, "interfaces": mesh.interface_vertex_ids}[kind]
    n_instants = fields[0].shape[0]
    if out is None:
        out = np.empty((n_instants, len(vertex_ids)), dtype=dtype).T
    planes = [np.ascontiguousarray(np.moveaxis(f, -1, 0), dtype=float) for f in fields]
    step = max(1, hexmesh.BLOCK_ELEMENT_INSTANTS // n_instants)
    for start in range(0, len(vertex_ids), step):
        ids = vertex_ids[start : start + step].T
        gathered = (p[:, :, ids].transpose(2, 0, 1, 3) for p in planes)
        out[start : start + step] = kernel(*gathered).T
    return out


def six_face_hex_volume(corners):
    """Hexahedron volume as a sum of six face terms of absolute corner positions."""
    quads = np.asarray(corners, dtype=float)[..., FACE_LOOPS, :]
    ri, rj, rk, rl = (quads[..., i, :] for i in range(4))
    terms = np.einsum("...i,...i->...", rj + rk, np.cross(ri + rl, ri + rj))
    return terms.sum(axis=-1) / 12.0


def six_face_dvoldt(corners, velocities):
    """Product rule of :func:`six_face_hex_volume`: the hexahedron volume rate from
    corner velocities and absolute corner positions."""
    quads = np.asarray(corners, dtype=float)[..., FACE_LOOPS, :]
    rates = np.asarray(velocities, dtype=float)[..., FACE_LOOPS, :]
    ri, rj, rk, rl = (quads[..., i, :] for i in range(4))
    vi, vj, vk, vl = (rates[..., i, :] for i in range(4))
    terms = (
        np.einsum("...i,...i->...", vj + vk, np.cross(ri + rl, ri + rj))
        + np.einsum("...i,...i->...", rj + rk, np.cross(vi + vl, ri + rj))
        + np.einsum("...i,...i->...", rj + rk, np.cross(ri + rl, vi + vj))
    )
    return terms.sum(axis=-1) / 12.0


def six_cross_quad_flux_by_direction(quad, velocities):
    """Per-direction face flux from the six cross products of absolute corner positions."""
    quad = np.asarray(quad, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    q0, q1, q2, q3 = (quad[..., i, :] for i in range(4))
    c01, c12, c23, c30 = np.cross(q0, q1), np.cross(q1, q2), np.cross(q2, q3), np.cross(q3, q0)
    c02, c13 = np.cross(q0, q2), np.cross(q1, q3)
    return (
        velocities.sum(axis=-2) * (c01 + c12 + c23 + c30)
        + velocities[..., 1, :] * (c01 + c12 - c02)
        + velocities[..., 2, :] * (c12 + c23 - c13)
        + velocities[..., 3, :] * (c23 + c30 + c02)
        + velocities[..., 0, :] * (c30 + c01 + c13)
    ) / 12.0


def rbf_gram(points, support_radius):
    """Sparse Wendland Gram matrix over all control points (CSR)."""
    from scipy.sparse import csr_array
    from scipy.spatial import cKDTree
    tree = cKDTree(np.asarray(points, dtype=float))
    near = tree.sparse_distance_matrix(tree, support_radius, output_type="ndarray")
    return csr_array(
        (wendland_c0(near["v"], support_radius), (near["i"], near["j"])),
        shape=(tree.n, tree.n),
    )


def rbf_solve(points, support_radius, values):
    """M^-1 values by one SuperLU factor of the whole Gram matrix M (minimum
    degree ordering of M + M^T, diagonal pivots) and one refinement step."""
    from scipy.sparse.linalg import splu
    gram = rbf_gram(points, support_radius)
    factor = splu(
        gram.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    values = np.asarray(values, dtype=float)
    coeff = factor.solve(values)
    return coeff + factor.solve(values - gram @ coeff)


def rbf_interpolate(points, grid, support_radius, coeff, block=1024):
    """sum_p phi(|x - p|) coeff[p] at every grid point x, over blocks of
    ``block`` grid points: each point sums its own near pairs in the k-d
    tree's order, by one ``np.bincount`` per block and column."""
    from scipy.spatial import cKDTree
    grid = np.asarray(grid, dtype=float)
    tree = cKDTree(np.asarray(points, dtype=float))
    columns = np.asarray(coeff, dtype=float).reshape(tree.n, -1)
    out = np.empty((len(grid), columns.shape[1]))
    for start in range(0, len(grid), block):
        rows = slice(start, start + block)
        near = cKDTree(grid[rows]).sparse_distance_matrix(
            tree, support_radius, output_type="ndarray"
        )
        weight = wendland_c0(near["v"], support_radius)
        for col in range(columns.shape[1]):
            out[rows, col] = np.bincount(
                near["i"], weight * columns[near["j"], col], minlength=len(out[rows])
            )
    return out.reshape((len(grid),) + np.shape(coeff)[1:])


def dft_derivative(op, samples):
    """d/dt of samples along the last axis by the DFT route.

    Transform, multiply by i 2 pi k / T, transform back; the imaginary residue
    of real input is dropped (it is at rounding level by conjugate symmetry).
    """
    factors = 1j * (2.0 * np.pi / op.period) * op.wavenumbers
    out = op.idft(op.dft(samples) * factors)
    return out.real if np.isrealobj(samples) else out


def fourier_defect(op, derivative, samples):
    """Largest sum over k of |DFT(derivative) - (i 2 pi k / T) DFT(samples)|.

    The sum bounds the sample-space gap between ``derivative`` and the DFT
    route idft(dft(samples) i 2 pi k / T) from above, so a bound on it is no
    looser than the same bound on the samples.
    """
    gap = op.dft(derivative) - op.dft(samples) * (2j * np.pi / op.period * op.wavenumbers)
    return float(np.abs(gap).sum(axis=-1).max())


def dft_ifmv(series, op):
    """IFMV of split increments by the DFT route: idft(dft(p) i 2 pi k / T).real + slope."""
    return dft_derivative(op, series.periodic_part) + series.linear_slope[..., None]


def fitted_order(nts_values, errors, floor=ORDER_FLOOR):
    """Least-squares slope of log(error) against log(1/Nts).

    Points at or below the rounding floor are excluded so a flat noise
    plateau cannot corrupt the slope.  Raises if fewer than three usable
    points remain.
    """
    nts_values = np.asarray(nts_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > floor
    if keep.sum() < 3:
        raise ValueError(
            f"need at least 3 points above the {floor:g} floor, have {int(keep.sum())}"
        )
    slope = np.polyfit(np.log(1.0 / nts_values[keep]), np.log(errors[keep]), 1)[0]
    return float(slope)


def analytic_increment_case3(radius, y30, depth, t, period=1.0):
    """Exact swept volume of the fixed/circling face since t = 0 (case 3).

    The face has one edge fixed and the opposite edge tracing the case-3
    circle of the given radius; ``y30`` is the height of the moving edge above
    the fixed one at t = 0 and ``depth`` the face extent in z.
    """
    alpha = 2.0 * np.pi * np.asarray(t, dtype=float) / period
    area = 0.5 * radius * radius * (alpha - np.sin(alpha)) + 0.5 * radius * y30 * (
        1.0 - np.cos(alpha)
    )
    return depth * area


def analytic_increment_rate_case3(radius, y30, depth, t, period=1.0):
    """Exact time derivative of :func:`analytic_increment_case3`."""
    alpha = 2.0 * np.pi * np.asarray(t, dtype=float) / period
    alpha_dot = 2.0 * np.pi / period
    rate = 0.5 * radius * radius * alpha_dot * (1.0 - np.cos(alpha)) + (
        0.5 * radius * y30 * alpha_dot * np.sin(alpha)
    )
    return depth * rate


def quad_flux_oracle(quad, velocities):
    """Face flux via 3x3 Gauss quadrature of the bilinear surface integrand."""
    nodes, weights = np.polynomial.legendre.leggauss(3)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    quad = np.asarray(quad, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    a, b, c, d = (quad[..., i, :] for i in range(4))
    va, vb, vc, vd = (velocities[..., i, :] for i in range(4))
    total = np.zeros(quad.shape[:-2])
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            xi, eta = nodes[i], nodes[j]
            r_xi = (b - a) * 1.0 + (a - b + c - d) * eta
            r_eta = (d - a) * 1.0 + (a - b + c - d) * xi
            vel = (
                (1 - xi) * (1 - eta) * va
                + xi * (1 - eta) * vb
                + xi * eta * vc
                + (1 - xi) * eta * vd
            )
            normal = np.cross(r_xi, r_eta)
            total += wi * wj * np.einsum("...i,...i->...", vel, normal)
    return total


def pressure(states):
    """Ideal-gas pressure from conservative variables (5, ...), checked positive."""
    p = flow._pressure(np.asarray(states, dtype=float))
    if np.any(p <= 0.0):
        raise ValueError("nonpositive pressure encountered")
    return p


def zero_ifmv(mesh, trajectory):
    """IFMV zero on every interface and instant: the controlled conservation
    defect of a mesh velocity left out, each cell's -dV/dt."""
    return gcl.IfmvField(np.zeros((len(mesh.interface_vertex_ids), len(trajectory.times))))


def face_flux(left, right, face_vector, face_ifmv):
    """:func:`flow.ale_face_flux` of two states, with the primitives and the
    state sum it takes computed here as the residual computes them."""
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    primitives = [(w[1:4] / w[0], flow._pressure(w)) for w in (left, right)]
    return flow.ale_face_flux(
        left, right, np.asarray(face_vector, dtype=float), face_ifmv, primitives, left + right
    )


def reference_jst(states, pressures, radii, kappa2, kappa4):
    """JST dissipation along the last axis, out of place."""
    p = pressures
    nu = np.abs(p[..., 2:] - 2.0 * p[..., 1:-1] + p[..., :-2]) / (
        p[..., 2:] + 2.0 * p[..., 1:-1] + p[..., :-2]
    )
    eps2 = kappa2 * np.maximum(nu[..., :-1], nu[..., 1:])
    eps4 = np.maximum(0.0, kappa4 - eps2)
    diff = np.diff(states, axis=-1)
    delta1 = diff[..., 1:-1]
    delta3 = diff[..., 2:] - 2.0 * delta1 + diff[..., :-2]
    return radii * (eps2 * delta1 - eps4 * delta3)


def nlfd_unsteady_residual(problem, wbar):
    """Per-harmonic unsteady residual: (i 2 pi k / T) w_k + R_k.

    ``wbar`` holds the spectral state Omega*w, (5, Nts, nz, ny, nx), with the
    sample instants on the second axis; the result carries the complex
    coefficients for k = -N..N on that axis.  At a converged periodic
    solution every coefficient vanishes.  The time-spectral matrix in
    ``problem.residual`` is the exact derivative on the samples, so its DFT
    carries (i 2 pi k / T) w_k.
    """
    residual = np.moveaxis(problem.residual(wbar), 1, -1)
    return np.moveaxis(problem.spectral.dft(residual), -1, 1)


# hybrid five-stage scheme: stage fractions, with dissipation blended at
# stages 1, 3 and 5
RK_STAGE_FRACTIONS = (0.25, 1.0 / 6.0, 0.375, 0.5, 1.0)
RK_DISSIPATION_BLEND = {0: 1.0, 2: 0.56, 4: 0.44}


def rk_march(problem, cfl=1.5, max_iterations=20000, drop=CONVERGENCE_DROP):
    """March ``problem`` in pseudo-time with the hybrid five-stage scheme.

    Local time steps from :meth:`FreestreamProblem.local_timestep` at the
    initial state; every stage evaluates the full residual and blends the
    dissipation of stages 1, 3 and 5.  The march stops on the solver's own
    rule: the stage-1 residual at ``residual_floor()`` ("floor") or
    fallen by ``drop`` ("drop"), else "max_iterations".
    """
    wbar = problem.initial_state()
    floor = problem.residual_floor()
    dt = problem.local_timestep(wbar, cfl)
    stop_reason, initial = "max_iterations", None
    for iteration in range(1, max_iterations + 1):
        w_stage = wbar
        diss_blend = None
        for stage, alpha in enumerate(RK_STAGE_FRACTIONS):
            conv, diss = problem.residual_parts(w_stage)
            beta = RK_DISSIPATION_BLEND.get(stage)
            if beta is not None:
                diss_blend = diss if diss_blend is None else beta * diss + (1.0 - beta) * diss_blend
            residual = conv - diss_blend
            if stage == 0:
                final = float(np.sqrt(np.mean(residual**2)))
            w_stage = wbar - alpha * dt * residual
        wbar = w_stage
        initial = final if initial is None else initial
        if final <= floor or final <= drop * initial:
            stop_reason = "floor" if final <= floor else "drop"
            break
    return FreestreamResult(
        problem.current_rel_err(wbar), iteration, initial, final, stop_reason,
        states=problem.physical_states(wbar),
    )


def dense_first_order_jacobian(problem, jacobians, dissipation):
    """Dense parts of the line-implicit preconditioner of ``problem``.

    Returns the cell-diagonal blocks of the first-order Jacobian ``J1`` and
    its couplings along x, y and z, each a real (5n, 5n) matrix with row
    ``5 c + component`` for cell ``c`` in the C order of (nz, ny, nx), and
    the time-averaged cell volumes (n,).  Every interface carries the flux
    ``f = left w_L + right w_R`` with ``left, right = 1/2 (A . S - g) +-
    dissipation * lambda``: the time-averaged +axis area vector ``S`` and
    IFMV ``g``, the flux Jacobians ``jacobians`` (3, 5, 5) and the mean over
    the instants of the freestream spectral radius ``|u . S_t - g_t| + a
    |S_t|``.  The flux enters its left cell's residual with a plus sign and
    its right cell's with a minus sign; a box-boundary face faces a frozen
    halo cell, so it touches only its one interior cell.
    """
    nz, ny, nx = problem.volumes.shape[1:]
    n = nx * ny * nz
    sound = np.sqrt(GAMMA * PRESSURE_INF / RHO_INF)
    diagonal = np.zeros((n, 5, n, 5))
    couplings = []
    for index, axis in enumerate(problem._axes):
        grid_axis = 2 - index  # of (nz, ny, nx)
        vectors = axis.vectors.transpose(axis.back)  # (3, Nts, ...) on the interface grid
        ifmv = axis.ifmv.transpose(axis.back[1:])
        contravariant = sum(u * s for u, s in zip(VELOCITY_INF, vectors)) - ifmv
        radius = (np.abs(contravariant) + sound * np.linalg.norm(vectors, axis=0)).mean(axis=0)
        mean_vectors, mean_ifmv = vectors.mean(axis=1), ifmv.mean(axis=0)
        coupling = np.zeros((n, 5, n, 5))
        for face in np.ndindex(*radius.shape):
            vector = mean_vectors[(slice(None),) + face]
            central = 0.5 * np.einsum("dij,d->ij", jacobians, vector)
            central -= 0.5 * mean_ifmv[face] * np.eye(5)
            left = central + dissipation * radius[face] * np.eye(5)
            right = central - dissipation * radius[face] * np.eye(5)
            position = face[grid_axis]
            cells = []
            for offset in (-1, 0):
                cell = list(face)
                cell[grid_axis] = position + offset
                inside = 0 <= cell[grid_axis] < problem.volumes.shape[1 + grid_axis]
                cells.append(np.ravel_multi_index(cell, (nz, ny, nx)) if inside else None)
            low, high = cells
            if low is not None:
                diagonal[low, :, low] += left
            if high is not None:
                diagonal[high, :, high] -= right
            if low is not None and high is not None:
                coupling[low, :, high] += right
                coupling[high, :, low] -= left
        couplings.append(coupling.reshape(5 * n, 5 * n))
    return diagonal.reshape(5 * n, 5 * n), couplings, problem.volumes.mean(axis=0).ravel()


def dense_preconditioner(problem, jacobians, dissipation):
    """``v -> P^-1 v`` for ``P = D + J1 Vbar^-1``, approximately factored, from
    dense matrices: every harmonic k = -N..N of the state's DFT solves
    ``(Dg + Ox) Dg^-1 (Dg + Oy) Dg^-1 (Dg + Oz) y_k = v_k`` with
    ``Dg = diagonal + i 2 pi k / T Vbar`` by dense solves, and the samples
    are ``Vbar`` times the real part of the inverse DFT.  ``v`` is flat, in
    the (5, Nts, nz, ny, nx) layout of the spectral state.
    """
    spectral = problem.spectral
    diagonal, couplings, vbar = dense_first_order_jacobian(problem, jacobians, dissipation)
    cells = vbar.size
    shape = (5, spectral.nts, cells)

    def apply(v):
        # cell-major rows (5 c + component) with the instants last
        samples = v.reshape(shape).transpose(2, 0, 1).reshape(5 * cells, spectral.nts)
        coefficients = spectral.dft(samples)
        for column, k in enumerate(spectral.wavenumbers):
            dg = diagonal + np.diag(np.repeat(1j * 2.0 * np.pi * k / spectral.period * vbar, 5))
            y = coefficients[:, column]
            for m, coupling in enumerate(couplings):
                if m:
                    y = dg @ y
                y = np.linalg.solve(dg + coupling, y)
            coefficients[:, column] = y
        out = np.repeat(vbar, 5)[:, None] * spectral.idft(coefficients).real
        return out.reshape(cells, 5, spectral.nts).transpose(1, 2, 0).ravel()

    return apply


def double_precision_preconditioner(problem):
    """``v -> P^-1 v`` from the package's own factors and line solves, all in
    float64: :meth:`FreestreamProblem._line_factors` and :func:`flow._solve_lines`
    on complex128 factors, unscaled, between the state's real FFT and ``Vbar``
    times its inverse.  It is the apply that the package's single-precision
    one approximates; ``v`` is flat, in the layout of the spectral state."""
    factors = problem._line_factors()
    nts, vbar = problem.spectral.nts, problem.volumes.mean(axis=0)

    def apply(v):
        y = np.fft.rfft(v.reshape((5,) + problem.volumes.shape), axis=1)
        for axis, factor in zip(problem._axes, factors):
            lines = flow._solve_lines(factor, np.moveaxis(y, axis.order[1], 0))
            y = np.moveaxis(lines, 0, axis.order[1])
        return (vbar * np.fft.irfft(y, nts, axis=1)).ravel()

    return apply


# -- the four hand-written motion laws that the one law of ``motion`` replaced,
# with the fields each read; kept verbatim


def _phase(t: np.ndarray, period: float) -> np.ndarray:
    return 2.0 * np.pi * np.asarray(t, dtype=float) / period


def _shift(mesh, case, t, fields):
    """Straight-line paths: the fields scaled by sin(2 pi t / T)."""
    theta = _phase(t, case.period)[:, None, None]
    pos = mesh.vertices + np.sin(theta) * fields
    vel = (2.0 * np.pi / case.period) * np.cos(theta) * fields
    return pos, vel


def _pivoted(pivot_x, pivot_y, offset_x, offset_y, sense):
    """Rotation fields, (n, 5): pivots, offsets from them, sense (+1 counter-clockwise)."""
    return np.stack(np.broadcast_arrays(pivot_x, pivot_y, offset_x, offset_y, sense), axis=-1)


def _rotation(mesh, case, t, fields):
    """Each offset turned about its pivot in the x-y plane by alpha0 sin(2 pi t / T)."""
    theta = _phase(t, case.period)
    alpha = case.alpha0 * np.sin(theta)[:, None]
    alpha_dot = case.alpha0 * (2.0 * np.pi / case.period) * np.cos(theta)[:, None]
    px, py, dx, dy, sense = fields.T
    # the sense flips sin and the rate; cos(-a) is cos(a)
    ca, sa, ad = np.cos(alpha), sense * np.sin(alpha), sense * alpha_dot
    x = px + ca * dx - sa * dy
    y = py + sa * dx + ca * dy
    vx = ad * (-sa * dx - ca * dy)
    vy = ad * (ca * dx - sa * dy)
    pos = np.stack([x, y, np.broadcast_to(mesh.vertices[:, 2], x.shape)], axis=-1)
    vel = np.stack([vx, vy, np.zeros_like(x)], axis=-1)
    return pos, vel


def _orbit(mesh, case, t, fields):
    """The points where the field is 1 circle at radius r through their rest place."""
    alpha = _phase(t, case.period)
    r = case.radius
    disp = np.stack(
        [r * (1.0 - np.cos(alpha)), r * np.sin(alpha), np.zeros_like(alpha)], axis=-1
    )  # (Nt, 3)
    vel1 = (2.0 * np.pi / case.period) * np.stack(
        [r * np.sin(alpha), r * np.cos(alpha), np.zeros_like(alpha)], axis=-1
    )
    pos = mesh.vertices + fields * disp[:, None, :]
    vel = fields * vel1[:, None, :] * np.ones((len(t), 1, 1))
    return pos, vel


def _pitch(mesh, case, t, fields):
    """Rigid pitching about x_p (angle alpha0 cos) of the offsets x - x_p and y."""
    theta = _phase(t, case.period)
    alpha = case.alpha0 * np.cos(theta)[:, None]
    alpha_dot = -case.alpha0 * (2.0 * np.pi / case.period) * np.sin(theta)[:, None]
    dx, y0 = fields.T
    ca, sa = np.cos(alpha), np.sin(alpha)
    sx = dx * (ca - 1.0) + y0 * sa
    sy = -dx * sa + y0 * (ca - 1.0)
    vx = alpha_dot * (-dx * sa + y0 * ca)
    vy = alpha_dot * (-dx * ca - y0 * sa)
    zeros = np.zeros_like(sx)
    pos = mesh.vertices + np.stack([sx, sy, zeros], axis=-1)
    vel = np.stack([vx, vy, zeros], axis=-1)
    return pos, vel


# case id -> (fields at the vertices, or of a spread case its spread modes; law)
_LAWS = {
    "case1": (
        lambda m, c, p: np.sin(np.pi * p / m.lengths).prod(axis=1, keepdims=True)
        * np.asarray(c.amplitude),
        _shift,
    ),
    "case2": (lambda m, c, p: _pivoted(p[:, 0], 0.0, 0.0, p[:, 1], -1.0), _rotation),
    "case3": (lambda m, c, p: (~m.boundary_vertex_mask())[:, None] * 1.0, _orbit),
    "case4": (lambda m, c, modes: modes, _shift),
    "case5": (lambda m, c, modes: modes, _pitch),
    "rigid-translation": (lambda m, c, p: np.broadcast_to(c.amplitude, p.shape), _shift),
    "rigid-rotation": (
        lambda m, c, p: _pivoted(*m.lengths[:2] / 2, *(p[:, :2] - m.lengths[:2] / 2).T, 1.0),
        _rotation,
    ),
}


def law_motion(mesh, case, t):
    """Vertex positions and velocities at the instants ``t`` by the case's
    own hand-written law.  A spread case's modes are spread as the package
    spreads them, so its fields are the package's."""
    row, (fields, law) = motion.CASES[case.case_id], _LAWS[case.case_id]
    values = mesh.vertices
    if row.spread is not None:
        points = mesh.vertices[mesh.boundary_vertex_ids()]
        system = rbf.build_system(points, mesh.vertices, case.resolved_support_radius(mesh))
        values = rbf.interpolate(system, row.spread(mesh, case, points))
    return law(mesh, case, np.atleast_1d(t), fields(mesh, case, values))


def warped_box_mesh(counts, warp, seed):
    """The 3.2 x 2.8 x 2.4 box mesh of ``counts`` (nx, ny, nz) cells with
    each interior vertex moved along each axis by up to ``warp`` of a cell:
    uniform random amounts from ``seed`` times the bump ``sin(pi x / lx)
    sin(pi y / ly) sin(pi z / lz)``, which vanishes on the boundary.  The
    boundary vertices stay where they are, so the box keeps its faces, and
    the cells inside have faces that are not rectangles."""
    mesh = hexmesh.build_box_mesh(*counts, 3.2, 2.8, 2.4)
    bump = np.prod(np.sin(np.pi * mesh.vertices / mesh.lengths), axis=1)
    bump[mesh.boundary_vertex_mask()] = 0.0
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.vertices.shape)
    cell = mesh.lengths / np.array(counts)
    return dataclasses.replace(mesh, vertices=mesh.vertices + warp * cell * shift * bump[:, None])


def cell_face_slots(mesh):
    """Each cell's six face slots as (interface ids, signs), both (n_cells, 6).

    Slot m of cell c is the interface whose four vertices are the cell's face
    loop ``FACE_LOOPS[m]``; its sign is +1 when the stored loop runs the same
    way round as the cell's loop and -1 when it runs the other way (a cell
    sees its -axis faces reversed).
    """
    loops = mesh.cell_vertex_ids[:, FACE_LOOPS]  # (n_cells, 6, 4)
    lookup = {tuple(k): i for i, k in enumerate(np.sort(mesh.interface_vertex_ids).tolist())}
    keys = np.sort(loops, axis=-1).reshape(-1, 4).tolist()
    interfaces = np.array([lookup[tuple(k)] for k in keys]).reshape(loops.shape[:2])
    stored = mesh.interface_vertex_ids[interfaces]
    rotations = [np.roll(stored, k, axis=-1) for k in range(4)]
    same = np.any([(r == loops).all(axis=-1) for r in rotations], axis=0)
    reverse = np.any([(r == loops[..., ::-1]).all(axis=-1) for r in rotations], axis=0)
    assert np.all(same != reverse), "a face loop matches its interface in neither direction"
    return interfaces, np.where(same, 1.0, -1.0)
