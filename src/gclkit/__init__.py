"""Face mesh velocities and geometric conservation on deforming hex meshes.

The package benchmarks four ways of computing integrated face mesh
velocities on a periodically deforming structured hexahedral mesh under a
spectral-in-time discretisation, and verifies which of them keep a uniform
flow exactly uniform.
"""

__version__ = "0.1.0"

from .hexmesh import (
    HexMesh,
    build_box_mesh,
    detect_degenerate,
    face_area_vectors,
    hex_volume,
)
from .motion import MotionCase, MotionTrajectory, sample_motion
from .rbf import RbfSystem, build_system, interpolate, wendland_c0
from .spectral import SpectralOperator, ts_matrix
from .gcl import (
    IfmvField,
    IncrementSeries,
    aevi_increments,
    dvoldt_trimap,
    extract_linear_and_periodic,
    ifmv_avg,
    ifmv_nlfd,
    ifmv_ts,
    lvi_increments,
    trimap_field,
)
from .flow import FreestreamState, ale_face_flux, jst_dissipation, pressure, run_freestream
from .metrics import (
    ErrorReport,
    abs_err_ifmv_vs_reference,
    abs_err_sum_vs_dvoldt,
    fitted_order,
    rel_err_freestream,
)

__all__ = [name for name in dir() if not name.startswith("_")]
