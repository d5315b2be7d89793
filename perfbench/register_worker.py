"""The register workload: Horn registration and Panoptic composition per frame.

Usage: python3 perfbench/register_worker.py FRAMES.npz OUT.npz

For every frame it recovers the head rotation from the landmarks with
rotkit's Horn solver, composes it with the frame's camera extrinsic and
measures the geodesic distance to the planted truth, one library call at
a time, the way a labelling script would.
"""

import sys

import numpy as np

from rotkit.core import geodesic_distance
from rotkit.registration import E_REF, horn_rotation, panoptic_rotation


def main(argv):
    frames_path, out_path = argv
    with np.load(frames_path) as f:
        src, dst, truth, cams, cam_index = (
            f["src"], f["dst"], f["truth"], f["cams"], f["cam_index"]
        )
    planted = E_REF @ cams[cam_index] @ truth
    n = len(dst)
    horn, pan, geo = np.empty((n, 3, 3)), np.empty((n, 3, 3)), np.empty(n)
    for i in range(n):
        horn[i] = horn_rotation(src, dst[i])
        pan[i] = panoptic_rotation(cams[cam_index[i]], horn[i])
        geo[i] = geodesic_distance(pan[i], planted[i])
    np.savez(out_path, horn=horn, pan=pan, geo=geo)
    print(f"register: {n} frames, mean geodesic {geo.mean():.12g} rad")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
