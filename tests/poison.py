"""Test helper: a dataset whose unobserved cells hold a poison value."""
from dataclasses import replace

import numpy as np


def poison_missing(data, poison=np.nan):
    """Overwrite unobserved cells with ``poison``.

    Code must never read cells under mask=0, so piping a poisoned dataset
    through a computation and checking that the result is finite (and
    unchanged) exposes mask violations.
    """
    values = np.where(data.mask.astype(bool), data.values, poison)
    return replace(data, values=values, mask=data.mask.copy())
