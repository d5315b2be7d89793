"""rotkit: head-pose rotation toolkit in the 300W-LP convention.

Exact 3x3 rotation algebra, closed-form Euler extraction with Gimbal-lock
handling, label transforms for 2D image augmentations, Euler-free axis
drawing, dataset coverage tools, and JSON Lines label I/O with a CLI.
"""

from .augment import (
    AugmentOp,
    PixelPoint,
    apply_augment,
    corollary_case,
    flip_image_label,
    map_pixel,
    pose_stream,
    random_augment,
    rotate_image_label,
)
from .core import (
    ORTHO_TOL,
    EulerPYR,
    EulerRPY,
    compose_pyr,
    compose_rpy,
    geodesic_distance,
    is_rotation,
    require_rotation,
    rot_x_left,
    rot_y_left,
    rot_z_left,
    wrap_angle,
)
from .coverage import (
    EulerRangeStats,
    PcaResult,
    SpiralSpec,
    densify_rolls,
    euler_range_stats,
    pca_project,
    random_rotation,
    spiral_rotations,
)
from .drawing import (
    AXIS_COLORS,
    AxisProjection,
    DrawSpec,
    project_axes,
    reference_draw_axis,
    render_svg,
    segments,
)
from .euler import (
    GIMBAL_EPS,
    PyrSolutions,
    RpySolution,
    canonical_pyr,
    extract_pyr,
    extract_rpy,
    pyr_to_rpy,
    rpy_to_pyr,
)
from .evaluate import EvalReport, mean_geodesic_error
from .labels import (
    ParseError,
    PoseRecord,
    ValidationError,
    read_labels,
    write_labels,
)
from .registration import (
    E_REF,
    CameraExtrinsic,
    DegenerateGeometryError,
    LandmarkSet,
    horn_rotation,
    panoptic_rotation,
)

__version__ = "0.1.0"

__all__ = [
    "AXIS_COLORS",
    "AugmentOp",
    "AxisProjection",
    "CameraExtrinsic",
    "DegenerateGeometryError",
    "DrawSpec",
    "E_REF",
    "EulerPYR",
    "EulerRPY",
    "EulerRangeStats",
    "EvalReport",
    "GIMBAL_EPS",
    "LandmarkSet",
    "ORTHO_TOL",
    "ParseError",
    "PcaResult",
    "PixelPoint",
    "PoseRecord",
    "PyrSolutions",
    "RpySolution",
    "SpiralSpec",
    "ValidationError",
    "apply_augment",
    "canonical_pyr",
    "compose_pyr",
    "compose_rpy",
    "corollary_case",
    "densify_rolls",
    "euler_range_stats",
    "extract_pyr",
    "extract_rpy",
    "flip_image_label",
    "geodesic_distance",
    "horn_rotation",
    "is_rotation",
    "map_pixel",
    "mean_geodesic_error",
    "panoptic_rotation",
    "pca_project",
    "pose_stream",
    "project_axes",
    "pyr_to_rpy",
    "random_augment",
    "random_rotation",
    "read_labels",
    "reference_draw_axis",
    "render_svg",
    "require_rotation",
    "rot_x_left",
    "rot_y_left",
    "rot_z_left",
    "rotate_image_label",
    "rpy_to_pyr",
    "segments",
    "spiral_rotations",
    "wrap_angle",
    "write_labels",
]
