"""Gauss-Legendre rules, read or built on first use and shared for the process.

numpy's leggauss(n) builds a rule by an n x n eigen-solve (0.7-1.8 s for
the package's sizes together on a 2-core box), so those sizes ship as
package data, leggauss's bits for each (tools/gauss_legendre_rules.py writes
the file).
Every rule comes from one cache: nothing is read or built at import, and a
rule is read or built at most once per process.
"""
from __future__ import annotations

import pathlib
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import ConfigError, _require_integer

# points per fourier_sum block, bounding its two phase buffers (2 MB each
# for v_h's rule).  A point's gemv bits depend on where it sits in its block:
# keep it a multiple of 16 (256 to 4096 kept every bit, 1000 did not)
_BLOCK = 1024
_RULES = pathlib.Path(__file__).with_name("gauss_legendre_rules.npz")


def gauss_legendre(n: int):
    """numpy's n-node Gauss-Legendre rule on [-1, 1] as (nodes, weights).

    A shipped n is read from the rules file, any other built by leggauss.
    Every caller shares the cached arrays, so they are read-only.
    """
    _require_integer("n", n, 1, ConfigError)  # before the cache: True == 1
    return _rule(int(n))  # one cache entry for 512 and np.int64(512)


@lru_cache(maxsize=16)
def _rule(n: int):
    with np.load(_RULES, allow_pickle=False) as shipped:
        if f"nodes{n}" in shipped:
            nodes, weights = shipped[f"nodes{n}"], shipped[f"weights{n}"]
        else:
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


def _in_order(pool, fn, items, ahead: int):
    """An iterator of fn(item) for each item, in order, each call run on pool.

    The first `ahead` calls are submitted here, not at the first next, so
    streams set up one after another start together.  The call for item
    i + ahead is submitted only once item i's has returned, so at most
    `ahead` calls run past the result the caller holds.  At ahead = 1 no
    two calls overlap, so a stateful fn (next on a generator) is advanced in
    item order, and the call for item i + 2 starts only after the caller
    has asked for item i + 1, so two buffers taken in turn suffice for fn's
    output (next on a vol_sim._ring_draws stream); at ahead >= 2 the calls
    for i + 1 ... i + ahead run at once, so fn must not carry state between
    them.  The results are consumed in order, so they do not depend on
    thread timing.
    """
    items = iter(items)
    futures = [pool.submit(fn, item) for item in islice(items, ahead)]

    def results():
        while futures:
            result = futures.pop(0).result()
            futures.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield result

    return results()


def fourier_sum(nodes, cos_coef, sin_coef, x):
    """sum_k cos_coef[k] cos(nodes[k] x) + sin_coef[k] sin(nodes[k] x), with
    no sine terms if sin_coef is None, shaped like x (a float for a scalar).

    The sums are matrix products, so a point's last bits depend on the rest
    of its batch x (by up to 2.4e-17 measured for v_h).  The _BLOCK-point
    blocks of x run two at a time through _in_order; each block does the
    same arithmetic as on one thread and writes its own slice of the result,
    so the bits depend on neither the thread count nor the timing.
    """
    x = np.asarray(x, dtype=float)
    xv = x.ravel()
    out = np.empty(xv.size)
    starts = range(0, xv.size, _BLOCK)
    # two phase buffers, allocated here (in the workers: 5 % more peak RSS);
    # block i + 2 starts only after block i returns, so it takes i's buffer
    buffers = [np.empty(nodes.size * min(xv.size, _BLOCK)) for _ in starts[:2]]

    def block(i):
        lo = starts[i]
        xb = xv[lo : lo + _BLOCK]
        phase = buffers[i % 2][: nodes.size * xb.size].reshape(nodes.size, xb.size)
        blk = 0.0
        if sin_coef is not None:
            np.sin(np.multiply.outer(nodes, xb, out=phase), out=phase)
            blk = sin_coef @ phase
        np.cos(np.multiply.outer(nodes, xb, out=phase), out=phase)
        out[lo : lo + xb.size] = cos_coef @ phase + blk

    if len(starts) < 2:
        list(map(block, range(len(starts))))
    else:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(_in_order(pool, block, range(len(starts)), 2))
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
