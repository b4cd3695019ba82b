"""Reference checks that only the tests call."""
import numpy as np

from calrlab.specfun import sph_jy


def wronskian_residual(n: float, r: float) -> float:
    """|j_n y_n' - j_n' y_n - 1/r^2| via recurrence derivatives, scaled."""
    if r <= 0:
        raise ValueError("argument must be > 0")
    vals = sph_jy(float(n), complex(r))
    w = vals["j"] * vals["dy"] - vals["dj"] * vals["y"]
    resid = w - (1.0 / r ** 2)
    return float(np.abs(resid.to_complex())[0])
