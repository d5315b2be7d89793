"""rotkit: head-pose rotation toolkit in the 300W-LP convention.

Exact 3x3 rotation algebra, closed-form Euler extraction with Gimbal-lock
handling, label transforms for 2D image augmentations, Euler-free axis
drawing, dataset coverage tools, and JSON Lines label I/O with a CLI.

A module is imported the first time one of its names, or the module
itself, is looked up on the package (PEP 562), so `import rotkit.core`
loads the rotation core and its table of Euler conventions alone.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names the package re-exports from it.
_EXPORTS = {
    "augment": "AugmentOp PixelPoint apply_augment corollary_case flip_image_label map_pixel "
               "pose_stream random_augment rotate_image_label",
    "core": "ORTHO_TOL EulerPYR EulerRPY compose_pyr compose_rpy geodesic_distance is_rotation "
            "require_rotation rot_x_left rot_y_left rot_z_left wrap_angle",
    "coverage": "EulerRangeStats PcaResult SpiralSpec densify_rolls euler_range_stats "
                "pca_project random_rotation spiral_rotations",
    "drawing": "AXIS_COLORS AxisProjection DrawSpec project_axes reference_draw_axis render_svg "
               "segments",
    "eigen": "",
    "euler": "GIMBAL_EPS PyrSolutions RpySolution canonical_pyr extract_pyr extract_rpy "
             "pyr_to_rpy rpy_to_pyr",
    "evaluate": "EvalReport mean_geodesic_error",
    "labels": "ParseError PoseRecord ValidationError read_labels write_labels",
    "registration": "E_REF CameraExtrinsic DegenerateGeometryError LandmarkSet horn_rotation "
                    "panoptic_rotation",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
