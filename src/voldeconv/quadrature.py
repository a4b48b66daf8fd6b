"""Gauss-Legendre rules, built on first use and shared for the process.

numpy's leggauss(n) costs seconds for n in the thousands, so every rule the
package uses comes from one cache: nothing is built at import, and a rule is
built at most once per process.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

_BLOCK = 2048  # points per fourier_sum block, bounding its phase matrix


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """numpy's n-node Gauss-Legendre rule on [-1, 1] as (nodes, weights).

    Every caller shares the cached arrays, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_box(box, n: int):
    """Per-axis nodes and weights of the n-node rule mapped onto each
    (lo, hi) pair of box, for tensor quadrature over the box."""
    u, w = gauss_legendre(n)
    xs, ws = [], []
    for lo, hi in box:
        xs.append(0.5 * (hi - lo) * u + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * w)
    return xs, ws


def tensor_quadrature(values, weights) -> float:
    """Weighted sum of values on a tensor grid: axis k of values is
    contracted with weights[k], last axis first."""
    for ax in reversed(range(len(weights))):
        values = np.tensordot(values, weights[ax], axes=([ax], [0]))
    return float(values)


def fourier_sum(nodes, cos_coef, sin_coef, x):
    """sum_k cos_coef[k] cos(nodes[k] x) + sin_coef[k] sin(nodes[k] x), with
    no sine terms if sin_coef is None, shaped like x (a float for a scalar).

    The sums are matrix products, so a point's last bits depend on the rest
    of its batch x (by up to 2.4e-17 measured for v_h).
    """
    x = np.asarray(x, dtype=float)
    xv = x.ravel()
    out = np.empty(xv.size)
    # cos overwrites the phase block: at most two block-sized arrays are live
    for lo in range(0, xv.size, _BLOCK):
        phase = np.outer(nodes, xv[lo : lo + _BLOCK])
        blk = 0.0 if sin_coef is None else sin_coef @ np.sin(phase)
        out[lo : lo + _BLOCK] = cos_coef @ np.cos(phase, out=phase) + blk
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
