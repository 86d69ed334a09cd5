"""Reference forms that only the tests read."""

import numpy as np

from timebinsim.elements import _INV_SQRT2, BsConvention


def bs_matrix(convention: BsConvention):
    """The 2x2 coefficient map of a splitter, rows = outputs."""
    if convention is BsConvention.SYMMETRIC:
        return np.array([[1.0, 1j], [1j, 1.0]]) * _INV_SQRT2
    return np.array([[1.0, 1j], [-1j, 1.0]]) * _INV_SQRT2
