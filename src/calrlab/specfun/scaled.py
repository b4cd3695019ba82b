"""Scaled complex arithmetic: values carried as mantissa * 10**exp10.

High-order radial functions overflow or underflow double precision long
before the quantities built from them do (products, ratios, Wronskians).
Everything order-sensitive in this package is therefore computed on
(mantissa, decimal exponent) pairs and collapsed to a plain complex only
at the end.
"""
from __future__ import annotations

import numpy as np


def _split(values):
    """Normalize an ndarray of complex values into (mantissa, exp10, nonzero).

    Zero and NaN values get mantissa 0 and exponent 0.
    """
    values = np.asarray(values, dtype=complex)
    mag = np.abs(values)
    nz = mag > 0.0
    e = np.floor(np.log10(np.where(nz, mag, 1.0))).astype(np.int64)
    m = np.where(nz, values / (10.0 ** e.astype(float)), 0.0 + 0.0j)
    return m, e, nz


class ScaledArray:
    """Elementwise mantissa * 10**exp10 representation of a complex array."""

    __slots__ = ("m", "e")

    def __init__(self, m, e, normalize: bool = True):
        self.m = np.asarray(m, dtype=complex)
        self.e = np.asarray(e, dtype=np.int64)
        if self.e.shape != self.m.shape:
            self.e = np.broadcast_to(self.e, self.m.shape).copy()
        if normalize:
            self._renormalize()

    def _renormalize(self):
        self.m, shift, nz = _split(self.m)
        self.e = np.where(nz, self.e + shift, 0)

    @classmethod
    def from_complex(cls, values):
        m, e, _ = _split(values)
        return cls(m, e, normalize=False)

    @classmethod
    def where(cls, cond, a: "ScaledArray", b: "ScaledArray") -> "ScaledArray":
        """a where cond holds, b elsewhere (cond broadcasts against both)."""
        return cls(np.where(cond, a.m, b.m), np.where(cond, a.e, b.e), normalize=False)

    @classmethod
    def stack(cls, parts, axis: int = 0) -> "ScaledArray":
        """ScaledArrays of one shape, stacked along a new axis."""
        return cls(np.stack([p.m for p in parts], axis), np.stack([p.e for p in parts], axis),
                   normalize=False)

    @property
    def shape(self):
        return self.m.shape

    def copy(self):
        return ScaledArray(self.m.copy(), self.e.copy(), normalize=False)

    def __getitem__(self, idx):
        return ScaledArray(self.m[idx], self.e[idx], normalize=False)

    def __mul__(self, other):
        if isinstance(other, ScaledArray):
            return ScaledArray(self.m * other.m, self.e + other.e)
        om, oe, _ = _split(other)
        return ScaledArray(self.m * om, self.e + oe)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledArray):
            with np.errstate(divide="ignore", invalid="ignore"):
                m = np.where(other.m != 0, self.m / other.m, np.inf + 0j)
            return ScaledArray(m, self.e - other.e)
        om, oe, _ = _split(other)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.where(om != 0, self.m / om, np.inf + 0j)
        return ScaledArray(m, self.e - oe)

    def __rtruediv__(self, other):
        return ScaledArray.from_complex(other) / self

    def __add__(self, other):
        if not isinstance(other, ScaledArray):
            other = ScaledArray.from_complex(other)
        # align to the larger exponent; the smaller term may flush to zero
        e = np.maximum(self.e, other.e)
        da = np.maximum(self.e - e, -400).astype(float)
        db = np.maximum(other.e - e, -400).astype(float)
        m = self.m * 10.0 ** da + other.m * 10.0 ** db
        return ScaledArray(m, e)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ScaledArray):
            other = ScaledArray.from_complex(other)
        return self + ScaledArray(-other.m, other.e, normalize=False)

    def __rsub__(self, other):
        return ScaledArray.from_complex(other) - self

    def __neg__(self):
        return ScaledArray(-self.m, self.e, normalize=False)

    @classmethod
    def pow10(cls, log10_factor) -> "ScaledArray":
        """10**log10_factor (real, possibly fractional) as 10**frac * 10**floor."""
        log10_factor = np.asarray(log10_factor, dtype=float)
        ip = np.floor(log10_factor)
        return cls(10.0 ** (log10_factor - ip), ip.astype(np.int64), normalize=False)

    def scale10(self, log10_factor):
        """Multiply by 10**log10_factor (real, possibly fractional)."""
        return self * ScaledArray.pow10(log10_factor)

    def log10_abs(self):
        """log10 of magnitude; -inf where zero."""
        mag = np.abs(self.m)
        out = np.full(self.m.shape, -np.inf)
        nz = mag > 0
        out[nz] = np.log10(mag[nz]) + self.e[nz]
        return out

    def to_complex(self):
        """Collapse to plain complex; overflow becomes inf, underflow 0.

        The real and imaginary mantissas are scaled apart, so a zero part
        stays 0 where the other overflows.
        """
        out = self.m.copy()
        with np.errstate(over="ignore", under="ignore"):
            scale = 10.0 ** np.clip(self.e.astype(float), -330, 330)
            for part in (out.real, out.imag):
                np.multiply(part, scale, out=part, where=part != 0)
        return out if out.shape else complex(out)

    def __repr__(self):
        return f"ScaledArray(m={self.m!r}, e={self.e!r})"
