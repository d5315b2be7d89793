import math
import statistics

import numpy as np
import pytest

from rotkit import (
    PoseRecord,
    ValidationError,
    is_rotation,
    mean_geodesic_error,
    random_rotation,
    read_labels,
    rot_z_left,
    write_labels,
)
from rotkit.augment import pose_stream


def _records(n, seed=0, prefix="r"):
    rng = pose_stream(seed)
    return [PoseRecord(id=f"{prefix}{i:04d}", rotation=random_rotation(rng)) for i in range(n)]


def test_file_against_itself_is_zero():
    records = _records(40)
    report = mean_geodesic_error(records, records)
    assert report.mean < 1e-7
    assert report.max < 1e-7


def test_constant_roll_offset():
    truth = _records(60, seed=1)
    offset = rot_z_left(0.1)
    predictions = [
        PoseRecord(id=r.id, rotation=offset @ r.rotation) for r in truth
    ]
    report = mean_geodesic_error(predictions, truth)
    assert abs(report.mean - 0.1) < 1e-12
    assert abs(report.median - 0.1) < 1e-12
    assert abs(report.max - 0.1) < 1e-12


def test_half_pi_mean_of_extremes():
    a = _records(1, seed=2)[0]
    b = PoseRecord(id="far", rotation=rot_z_left(math.pi) @ a.rotation)
    truth = [a, PoseRecord(id="far", rotation=a.rotation)]
    preds = [PoseRecord(id=a.id, rotation=a.rotation), b]
    report = mean_geodesic_error(preds, truth)
    assert abs(report.mean - math.pi / 2) < 1e-7
    assert abs(report.max - math.pi) < 1e-12


def test_id_mismatch_lists_ids():
    preds = _records(3, seed=3)
    truth = _records(3, seed=3)[:2] + _records(1, seed=4, prefix="extra")
    with pytest.raises(ValidationError) as exc:
        mean_geodesic_error(preds, truth)
    message = str(exc.value)
    assert "r0002" in message
    assert "extra0000" in message


def test_duplicate_ids_rejected():
    a = _records(2, seed=5)
    a[1] = PoseRecord(id=a[0].id, rotation=a[1].rotation)
    with pytest.raises(ValidationError, match="duplicate"):
        mean_geodesic_error(a, a)


def test_empty_rejected():
    with pytest.raises(ValidationError):
        mean_geodesic_error([], [])


def test_accepts_file_tolerance_rotations():
    # matrices at the label-file tolerance (residual ~6e-8) must evaluate
    truth = _records(5, seed=9)
    preds = [PoseRecord(id=r.id, rotation=r.rotation * (1.0 + 3e-8)) for r in truth]
    report = mean_geodesic_error(preds, truth)
    assert report.max < 1e-3


def test_same_distances_in_memory_and_read_back(tmp_path):
    # float32-rounded rotations pass the file tolerance but not ORTHO_TOL;
    # in memory and read back from a file, their nearest rotations are measured
    def rounded(records):
        return [PoseRecord(id=r.id, rotation=r.rotation.astype(np.float32).astype(float))
                for r in records]

    truth = _records(30, seed=14)
    preds = rounded(_records(20, seed=15)) + [
        PoseRecord(id=r.id, rotation=rot_z_left(0.3) @ r.rotation) for r in truth[20:]]
    truth = rounded(truth[:10]) + truth[10:]
    assert not any(is_rotation(r.rotation) for r in preds[:20] + truth[:10])
    write_labels(preds, tmp_path / "pred.jsonl")
    write_labels(truth, tmp_path / "truth.jsonl")
    in_memory = mean_geodesic_error(preds, truth)
    read_back = mean_geodesic_error(read_labels(tmp_path / "pred.jsonl"),
                                    read_labels(tmp_path / "truth.jsonl"))
    ids, distances = zip(*in_memory.per_record)
    assert list(ids) == [r.id for r in preds]
    assert np.array(distances).tobytes() == np.array([d for _, d in read_back.per_record]).tobytes()
    assert (in_memory.mean, in_memory.median, in_memory.max) == (
        read_back.mean, read_back.median, read_back.max)


def test_symmetric_in_file_order():
    a = _records(20, seed=6)
    b = [PoseRecord(id=r.id, rotation=random_rotation(pose_stream(7, i)))
         for i, r in enumerate(a)]
    assert mean_geodesic_error(a, b).mean == mean_geodesic_error(b, a).mean


def test_per_record_report():
    truth = _records(5, seed=8)
    preds = [PoseRecord(id=r.id, rotation=rot_z_left(0.05) @ r.rotation) for r in truth]
    report = mean_geodesic_error(preds, truth)
    assert [rid for rid, _ in report.per_record] == [r.id for r in preds]
    for _, dist in report.per_record:
        assert abs(dist - 0.05) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_median_matches_statistics_median(n):
    truth = _records(n, seed=10)
    preds = _records(n, seed=11)
    report = mean_geodesic_error(preds, truth)
    distances = [d for _, d in report.per_record]
    assert report.median == statistics.median(distances)


def test_generators_on_both_sides():
    # each side is read once, whatever iterable it is
    truth = _records(6, seed=12)
    preds = [PoseRecord(id=r.id, rotation=rot_z_left(0.05) @ r.rotation) for r in reversed(truth)]
    want = mean_geodesic_error(preds, truth)
    got = mean_geodesic_error((r for r in preds), iter(truth))
    assert got == want
    assert mean_geodesic_error(preds, (r for r in truth)) == want
    with pytest.raises(ValidationError, match="^no records to evaluate$"):
        mean_geodesic_error(iter([]), (r for r in []))
