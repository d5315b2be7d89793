"""Pose-set evaluation with the geodesic metric."""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import _geodesic_rows, _so3_gaps
from .labels import FILE_ORTHO_TOL, PoseRecord, ValidationError, _columns, _repair


@dataclass(frozen=True)
class EvalReport:
    """Mean/median/max geodesic error plus the per-record distances."""

    mean: float
    median: float
    max: float
    per_record: List[Tuple[str, float]]


def _rows_by_id(ids: Sequence[str], what: str) -> dict:
    rows = {}
    for row, rec_id in enumerate(ids):
        if rec_id in rows:
            raise ValidationError(f"{what}: duplicate id {rec_id!r}")
        rows[rec_id] = row
    return rows


def _truth_rows(pred_ids: Sequence[str], truth_ids: Sequence[str]) -> List[int]:
    # the ground-truth row of each prediction; duplicate or unmatched ids
    # raise mean_geodesic_error's errors
    pred = _rows_by_id(pred_ids, "predictions")
    truth = _rows_by_id(truth_ids, "ground truth")
    missing_truth = sorted(pred.keys() - truth.keys())
    missing_pred = sorted(truth.keys() - pred.keys())
    if missing_truth or missing_pred:
        parts = []
        if missing_truth:
            parts.append(f"ids missing from ground truth: {missing_truth}")
        if missing_pred:
            parts.append(f"ids missing from predictions: {missing_pred}")
        raise ValidationError("; ".join(parts))
    if not pred:
        raise ValidationError("no records to evaluate")
    return [truth[rec_id] for rec_id in pred_ids]


def _evaluate_stacks(pred_ids, pred: np.ndarray, truth_ids, truth: np.ndarray) -> EvalReport:
    """mean_geodesic_error over ids and (n, 3, 3) stacks whose rotations
    pass ORTHO_TOL, as the label reader returns them; they are not checked
    again."""
    distances = _geodesic_rows(pred, truth[_truth_rows(pred_ids, truth_ids)]).tolist()
    # the middle of the sorted distances, (a + b) / 2 of two as np.median
    # has it; np.median would import numpy.ma
    ordered, mid = sorted(distances), len(distances) // 2
    return EvalReport(
        mean=sum(distances) / len(distances),
        median=ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2,
        max=max(distances),
        per_record=list(zip(pred_ids, distances)),
    )


def mean_geodesic_error(
    predictions: Sequence[PoseRecord], ground_truth: Sequence[PoseRecord]
) -> EvalReport:
    """Mean geodesic distance between rotations paired by id.

    The id sets must match exactly; silent intersection would corrupt
    benchmark numbers, so any mismatch is a hard error listing the ids.
    Rotations are taken as a label file's are read: each must pass the
    SO(3) check at FILE_ORTHO_TOL, and one that fails ORTHO_TOL is measured
    as its nearest rotation (labels._repair), so records give the same
    distances in memory as once written and read back.
    """
    stacks = []
    for records, what in ((predictions, "first argument"), (ground_truth, "second argument")):
        chunk = _columns(list(records))
        gaps = np.maximum.reduce(_so3_gaps(chunk.rotations.reshape(-1, 9).T))
        ok = gaps <= FILE_ORTHO_TOL
        if not ok.all():
            raise ValueError(f"{what} row {int(np.argmin(ok))} is not a rotation matrix "
                             f"within tol={FILE_ORTHO_TOL:g}")
        _repair(chunk.rotations, gaps)
        stacks += [chunk.ids, chunk.rotations]
    return _evaluate_stacks(*stacks)
