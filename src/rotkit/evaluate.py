"""Pose-set evaluation with the geodesic metric."""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import _geodesic_batch
from .labels import FILE_ORTHO_TOL, PoseRecord, ValidationError


@dataclass(frozen=True)
class EvalReport:
    """Mean/median/max geodesic error plus the per-record distances."""

    mean: float
    median: float
    max: float
    per_record: List[Tuple[str, float]]


def _by_id(records: Sequence[PoseRecord], what: str) -> dict:
    out = {}
    for rec in records:
        if rec.id in out:
            raise ValidationError(f"{what}: duplicate id {rec.id!r}")
        out[rec.id] = rec
    return out


def mean_geodesic_error(
    predictions: Sequence[PoseRecord], ground_truth: Sequence[PoseRecord]
) -> EvalReport:
    """Mean geodesic distance between rotations paired by id.

    The id sets must match exactly; silent intersection would corrupt
    benchmark numbers, so any mismatch is a hard error listing the ids.
    """
    pred = _by_id(predictions, "predictions")
    truth = _by_id(ground_truth, "ground truth")
    missing_truth = sorted(set(pred) - set(truth))
    missing_pred = sorted(set(truth) - set(pred))
    if missing_truth or missing_pred:
        parts = []
        if missing_truth:
            parts.append(f"ids missing from ground truth: {missing_truth}")
        if missing_pred:
            parts.append(f"ids missing from predictions: {missing_pred}")
        raise ValidationError("; ".join(parts))
    if not pred:
        raise ValidationError("no records to evaluate")

    # records come from label files, which admit the looser file tolerance
    distances = _geodesic_batch(
        np.stack([rec.rotation for rec in predictions]),
        np.stack([truth[rec.id].rotation for rec in predictions]),
        tol=FILE_ORTHO_TOL,
    ).tolist()
    per_record = [(rec.id, d) for rec, d in zip(predictions, distances)]
    # statistics.median's arithmetic, without importing statistics (and
    # with it fractions and decimal) into every command
    s, mid = sorted(distances), len(distances) // 2
    return EvalReport(
        mean=sum(distances) / len(distances),
        median=s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2,
        max=max(distances),
        per_record=per_record,
    )
