"""Symmetric eigendecomposition for small matrices, via LAPACK through numpy.

Used for the 9x9 covariance in PCA, the 3x3 scatter of the plane test and
the 4x4 quaternion matrix of the Horn solver.
"""

import numpy as np


def symmetric_eigh(a):
    """Eigenvalues and eigenvectors of a real symmetric matrix.

    The input is checked to be square, finite and symmetric within
    1e-8 * max(1, max|a|); LAPACK reads only one triangle, so an asymmetric
    input would otherwise be solved silently as a different matrix.  The
    symmetric part 0.5 * (a + a^T) is what gets decomposed.

    Returns:
        (values, vectors): values sorted descending, vectors[:, i] is the
        unit eigenvector for values[i].
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite")
    if np.abs(m - m.T).max() > 1e-8 * max(1.0, float(np.abs(m).max())):
        raise ValueError("matrix must be symmetric")
    values, vectors = np.linalg.eigh(0.5 * (m + m.T))
    return values[::-1], vectors[:, ::-1]
