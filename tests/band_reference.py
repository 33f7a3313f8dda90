"""Dense reference evaluation of bands at arbitrary momenta.

`bandrec` samples a band only at its twisted momenta, through `bands.sample`,
and a cosine series there through the fold and one FFT. The tests check that
path against this one, which sums the series term by term at any k.
"""

import numpy as np

from bandrec.bands import FourierBand


def cosine_series(c0, coeffs, k):
    """c0 + sum_n coeffs[n-1] * cos(n*k), summed densely."""
    k_arr = np.asarray(k, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        out = np.full_like(k_arr, float(c0), dtype=float)
    else:
        n = np.arange(1, coeffs.size + 1)
        out = c0 + np.cos(np.multiply.outer(k_arr, n)) @ coeffs
    return float(out) if k_arr.ndim == 0 else out


def evaluate(band, k):
    """The band at momenta k: a cosine series densely, a closed form directly."""
    if isinstance(band, FourierBand):
        return cosine_series(band.c0, band.coeffs, k)
    return band.evaluate(k)
