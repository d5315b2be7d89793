"""The package namespace: every public name, loaded from its module on first use.

Each check runs in a fresh interpreter, so that no other test has imported
a module first.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The public names and their defining modules.
PUBLIC = {
    "augment": ["AugmentOp", "PixelPoint", "apply_augment", "corollary_case",
                "flip_image_label", "map_pixel", "pose_stream", "random_augment",
                "rotate_image_label"],
    "core": ["ORTHO_TOL", "EulerPYR", "EulerRPY", "compose_pyr", "compose_rpy",
             "geodesic_distance", "is_rotation", "require_rotation", "rot_x_left", "rot_y_left",
             "rot_z_left", "wrap_angle"],
    "coverage": ["EulerRangeStats", "PcaResult", "SpiralSpec", "densify_rolls",
                 "euler_range_stats", "pca_project", "random_rotation", "spiral_rotations"],
    "drawing": ["AXIS_COLORS", "AxisProjection", "DrawSpec", "project_axes",
                "reference_draw_axis", "render_svg", "segments"],
    "euler": ["GIMBAL_EPS", "PyrSolutions", "RpySolution", "canonical_pyr", "extract_pyr",
              "extract_rpy", "pyr_to_rpy", "rpy_to_pyr"],
    "evaluate": ["EvalReport", "mean_geodesic_error"],
    "labels": ["ParseError", "PoseRecord", "ValidationError", "read_labels", "write_labels"],
    "registration": ["E_REF", "CameraExtrinsic", "DegenerateGeometryError", "LandmarkSet",
                     "horn_rotation", "panoptic_rotation"],
}


def _fresh(code):
    """The Python literal that `code`, run in a fresh interpreter, prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                         capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout)


def test_every_public_name_is_its_modules_object():
    got = _fresh(f"""
import importlib, rotkit
public = {PUBLIC!r}
same = [name for module, names in public.items() for name in names
        if getattr(rotkit, name) is getattr(importlib.import_module("rotkit." + module), name)]
print({{"all": rotkit.__all__, "same": same, "dir": dir(rotkit)}})
""")
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 57
    assert got["all"] == names
    assert sorted(got["same"]) == names
    assert set(names) <= set(got["dir"])


def test_star_import_binds_every_public_name():
    got = _fresh("""
from rotkit import *
import rotkit
print(sorted(name for name in rotkit.__all__ if globals()[name] is getattr(rotkit, name)))
""")
    assert len(got) == 57


def test_submodules_resolve_and_unknown_names_raise():
    got = _fresh("""
import rotkit
loaded = "rotkit.labels" in sys.modules
labels = rotkit.labels
try:
    rotkit.no_such_name
    raised = None
except AttributeError as exc:
    raised = str(exc)
print([loaded, labels is sys.modules["rotkit.labels"], raised])
""")
    assert got == [False, True, "module 'rotkit' has no attribute 'no_such_name'"]


def test_importing_the_core_loads_no_other_module():
    got = _fresh("""
import rotkit.core
print(sorted(m for m in sys.modules if m.startswith("rotkit") or m == "json"))
""")
    assert got == ["rotkit", "rotkit._conventions", "rotkit.core"]
