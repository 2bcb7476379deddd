"""Independent reference routes that the tests hold gclkit against.

Nothing in the package calls these.  Each reaches a quantity the package
computes another way: the time derivative through the DFT instead of the
time-spectral matrix, a closed-form swept volume, a Gauss quadrature of the
face flux, the per-harmonic residual, a least-squares convergence order, and
the cell-slot table of faces gathered by matching vertex sets.  The corner
Jacobians are stacked here from the package's kernel, whose only package
reader, the degeneracy gate, takes their minimum.  The cell volume as a sum
of six face terms, its product-rule rate and the face flux from six corner
cross products are the absolute-position forms the package's edge-vector
kernels replaced: the same polynomials, with rounding that grows with the
distance from the origin.  The RBF solve through one SuperLU factor of the
whole sparse Gram matrix is the route the mirror-symmetry blocks replaced.
"""

import numpy as np

from gclkit import hexmesh
from gclkit.hexmesh import FACE_LOOPS
from gclkit.rbf import wendland_c0

# errors at or below this are rounding noise, not a convergence curve
ORDER_FLOOR = 1e-13


def corner_jacobians(corners):
    """Jacobian determinant of the trilinear map at the 8 reference corners.

    Returns an array of shape (..., 8): at each corner, the triple product of
    the three cell edges leaving it along xi, eta and zeta.
    """
    return np.stack(hexmesh._corner_jacobians(hexmesh.corner_planes(corners)), axis=-1)


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


def dft_derivative(op, samples):
    """d/dt of samples along the last axis by the DFT route.

    Transform, multiply by i 2 pi k / T, transform back; the imaginary residue
    of real input is dropped (it is at rounding level by conjugate symmetry).
    """
    factors = 1j * (2.0 * np.pi / op.period) * op.wavenumbers
    out = op.idft(op.dft(samples) * factors)
    return out.real if np.isrealobj(samples) else out


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


def cell_face_slots(mesh):
    """Each cell's six face slots as (interface ids, signs), both (n_cells, 6).

    Slot m of cell c is the interface whose four vertices are the cell's face
    loop ``FACE_LOOPS[m]``; its sign is +1 when the stored loop runs the same
    way round as the cell's loop and -1 when it runs the other way (the
    neighbour sees the owner's face reversed).
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
