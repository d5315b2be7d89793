"""Pose-set evaluation with the geodesic metric."""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import _geodesic_batch
from .labels import FILE_ORTHO_TOL, PoseRecord, ValidationError, _columns


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
    """mean_geodesic_error over ids and (n, 3, 3) stacks, as a label file
    reads; records come from label files, which admit the looser file
    tolerance."""
    truth = truth[_truth_rows(pred_ids, truth_ids)]
    distances = _geodesic_batch(pred, truth, tol=FILE_ORTHO_TOL).tolist()
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
    """
    pred, truth = _columns(list(predictions)), _columns(list(ground_truth))
    return _evaluate_stacks(pred.ids, pred.rotations, truth.ids, truth.rotations)
