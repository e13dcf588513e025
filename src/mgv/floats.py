"""Float sums and means with the same bits on every supported Python."""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np


def fold_sum(values, start=0):
    """``((start + x0) + x1) + ...``, left to right: the builtin ``sum`` of
    Python 3.11.  From 3.12 ``sum`` compensates float rounding (gh-100425)
    and so moves last bits, so every sum on a path to a trace, a summary or a
    validation decision is this fold."""
    return reduce(add, values, start)


def mean(values) -> np.float64:
    """``np.mean`` of a non-empty 1-D sequence of floats, ints or bools, with
    its bits: the same float64 pairwise ``np.add.reduce`` divided by the
    length.  Skipping ``np.mean``'s dispatch takes a short sequence's mean in
    about a third of the time."""
    return np.add.reduce(values, dtype=float) / len(values)
