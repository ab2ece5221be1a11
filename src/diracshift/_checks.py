"""The input rules the library relies on, each checked in one place:
square matrices, finite entries (the arguments of det_k), Hermitian
matrices with finite entries (V and the pair (H, H0)), positive finite
reals (radii, widths, tolerances, couplings), positive integer orders k
of det_k, z off the real axis, and specs given as a dict, JSON text or a
JSON file.  Every failure is a ValueError that names the offending input.
"""

from __future__ import annotations

import json
import math

import numpy as np


def square(name: str, m) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def finite(name: str, m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must have finite entries")
    return m


def hermitian(name: str, m, rtol: float = 1e-13) -> np.ndarray:
    """``m`` as a complex square matrix with finite entries whose
    anti-Hermitian part is at most ``rtol`` times max(1, max |m_ij|)."""
    m = finite(name, square(name, m))
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > rtol * scale:
        raise ValueError(f"{name} must be Hermitian")
    return m


def positive(x, name: str) -> float:
    """``x`` as a float in (0, inf); NaN and the infinities are rejected."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return x


def offreal(z) -> complex:
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("z must lie off the real axis")
    return z


def order(k, name: str = "k", upper: int | None = None) -> int:
    """An int or numpy integer >= 1 (not a bool), at most ``upper``."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError(f"order {name} must be a positive integer, got {k!r}")
    k = int(k)
    if upper is not None and k > upper:
        raise ValueError(f"order {name}={k} unsupported here (max {upper})")
    return k


def read_spec(source, what: str, required) -> dict:
    """The JSON object in ``source``: a dict, JSON text (starting with "{")
    or a path to a JSON file, holding every member named in ``required``."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        try:
            if not text.lstrip().startswith("{"):
                with open(text, encoding="utf-8") as fh:
                    text = fh.read()
            data = json.loads(text)
        except OSError as exc:
            raise ValueError(f"cannot read {what} file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} spec is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} spec: expected an object at /")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} spec: missing member at /{key}")
    return data
