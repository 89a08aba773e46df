"""The dense (..., L, d) array of token sequences, for tests that hold the nets'
token path against the dense one."""

import numpy as np

from cgrader.neural import TokenSequences


def dense_array(X) -> np.ndarray:
    """X as a float64 array: TokenSequences spelled out, anything else as it is."""
    if not isinstance(X, TokenSequences):
        return np.asarray(X)
    array = np.zeros(X.shape)
    np.put_along_axis(array, X.ids[..., None], X.values[..., None], axis=-1)
    return array
