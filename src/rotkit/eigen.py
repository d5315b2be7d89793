"""Symmetric eigendecomposition for small matrices, via LAPACK through numpy.

Used for the 9x9 covariance in PCA, the 3x3 scatter of the plane test and
the 4x4 quaternion matrix of the Horn solver.  Each caller builds its
matrix square and symmetric, so only finiteness is checked here.
"""

import numpy as np


def symmetric_eigh(a):
    """Eigenvalues and eigenvectors of a real symmetric matrix.

    Checks only that the entries are finite (an overflowed scatter raises
    ValueError here); the symmetric part 0.5 * (a + a^T) is what gets
    decomposed, so LAPACK's choice of triangle cannot matter.

    Returns:
        (values, vectors): values sorted descending, vectors[:, i] is the
        unit eigenvector for values[i].
    """
    m = np.asarray(a, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite")
    values, vectors = np.linalg.eigh(0.5 * (m + m.T))
    return values[::-1], vectors[:, ::-1]
