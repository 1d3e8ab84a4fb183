"""Dirichlet kernel, Fourier coefficients, partial sums and the absolute norm.

Conventions: the circle has total measure 1 and the characters are
exp(2*pi*i*k*t). The degree-n Dirichlet kernel is the sum of characters with
|k| <= n, equal to sin(pi*(2n+1)*t) / sin(pi*t) away from the integers and to
2n+1 on them; its integral over the circle is 1.

Coefficients of a sampled function are the grid averages

    c_k = 2**-m * sum_i f(i / 2**m) * exp(-2*pi*i*k*i/2**m),

held for the 2**m distinct grid frequencies k in [-2**(m-1), 2**(m-1) - 1].
The frequencies +2**(m-1) and -2**(m-1) coincide on the grid, so the top
frequency is served as an alias of the bottom one; this keeps conjugate
symmetry and exact Parseval at the same time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._fork import _fork_map
from .grid import ResolutionError, SampledFunction, _array, _whole

__all__ = [
    "dirichlet_kernel",
    "FourierCoeffs",
    "coeffs",
    "coeffs_naive",
    "partial_sum",
    "sup_partial_sums",
    "a_norm",
    "kernel_block_integral",
    "kernel_block_matrix",
    "circ_dist",
]


def dirichlet_kernel(n: int, t):
    """Evaluate the degree-n Dirichlet kernel at t (scalar or array).

    The argument is reduced to [-1/2, 1/2] before the sine ratio is formed,
    which keeps accuracy for large arguments; the removable singularity at
    integer t evaluates to exactly 2n + 1.
    """
    n = _whole(n, 0, "degree must be >= 0")
    t = _array(t, None, "kernel arguments must be finite reals")
    frac = t - np.round(t)
    singular = frac == 0.0
    safe = np.where(singular, 0.25, frac)
    num = np.sin(np.pi * (2 * n + 1) * safe)
    den = np.sin(np.pi * safe)
    out = np.where(singular, float(2 * n + 1), num / den)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class FourierCoeffs:
    """Grid Fourier coefficients in centered order.

    c[i] is the coefficient of frequency k = i - 2**(m-1), for i in
    range(2**m). Accessor coeff(k) additionally serves k = +2**(m-1) as the
    alias of -2**(m-1).
    """

    m: int
    c: np.ndarray

    def __post_init__(self):
        message = "coefficients must be a 1-d array of 2**m finite complex numbers"
        arr = _array(self.c, 1, message, complex)
        if arr.shape[0] != (1 << self.m):
            raise ValueError(message)
        object.__setattr__(self, "c", arr)

    @property
    def half(self) -> int:
        # 0 on the one-point grid (m = 0), whose only frequency is 0
        return (1 << self.m) >> 1

    def coeff(self, k: int) -> complex:
        if abs(k) > self.half:
            raise ValueError(f"|k| <= {self.half} required, got {k}")
        if k == self.half:
            k = -self.half
        return complex(self.c[k + self.half])

    def conjugate_symmetry_gap(self) -> float:
        """max_k |c_-k - conj(c_k)| over the paired frequencies."""
        h = self.half
        pos = self.c[h + 1 :]
        neg = self.c[h - 1 : 0 : -1]
        gaps = [np.max(np.abs(neg - np.conj(pos))) if h > 1 else 0.0]
        gaps.append(abs(self.c[h].imag))
        gaps.append(abs(self.c[0].imag))
        return float(max(gaps))

    def parseval_gap(self, f: SampledFunction) -> float:
        """Relative gap between sum |c_k|^2 and the grid mean of |f|^2."""
        lhs = float(np.sum(np.abs(self.c) ** 2))
        rhs = float(np.mean(np.abs(f.values) ** 2))
        scale = max(rhs, 1e-300)
        return abs(lhs - rhs) / scale


def coeffs(f: SampledFunction) -> FourierCoeffs:
    """FFT route; coeffs_naive is the direct-summation oracle."""
    c = np.fft.fftshift(np.fft.fft(f.values)) / f.size
    return FourierCoeffs(f.m, c)


def coeffs_naive(f: SampledFunction) -> FourierCoeffs:
    """O(4**m) definition-chasing sum, retained to cross-check the FFT."""
    n = f.size
    i = np.arange(n)
    ks = np.arange(-(n // 2), n // 2)
    phases = np.exp(-2j * np.pi * np.outer(ks, i) / n)
    c = phases @ f.values / n
    return FourierCoeffs(f.m, c)


def _whole_degrees(degrees, low: int) -> tuple[int, ...]:
    """The given degrees as ints, in their order, each a whole number of at
    least low (0 or 1)."""
    kind = {0: "nonnegative", 1: "positive"}[low]
    message = f"degrees must be a nonempty tuple of {kind} integers"
    try:
        out = tuple(_whole(r, low, message) for r in degrees)
    except TypeError:
        raise ValueError(message) from None
    if not out:
        raise ValueError(message)
    return out


def _check_degree(f_m: int, n: int):
    # a 2**m grid resolves degrees below 2**(m-1); the one-point grid
    # (m = 0) resolves none, not even degree 0
    if n >= (1 << f_m) >> 1:
        raise ResolutionError(
            f"partial sum of degree {n} needs a grid finer than 2**{f_m}"
        )


# Rows of one synthesis block. Transformed four at a time in place, a row
# at m=16 costs about 1.05 ms, against 1.5 to 2.2 ms in blocks of one to
# three rows.
_BLOCK_ROWS = 4


def _synthesis(spec: np.ndarray, degrees, block: np.ndarray) -> np.ndarray:
    """S_n on the grid for each of up to len(block) degrees n, from the raw
    (unshifted) FFT of the samples. Row i of the preallocated complex block
    keeps the frequencies |k| <= degrees[i] and is transformed back in
    place; the filled rows are returned, and their real parts are the
    partial sums. Each row is bitwise the same whichever block and row it
    is computed in."""
    rows = block[: len(degrees)]
    rows[...] = 0
    for row, n in zip(rows, degrees):
        row[: n + 1] = spec[: n + 1]
        if n > 0:
            row[-n:] = spec[-n:]
    return np.fft.ifft(rows, axis=-1, out=rows)


def partial_sum(f: SampledFunction, n: int) -> SampledFunction:
    """The degree-n Fourier partial sum S_n f, sampled on f's own grid."""
    (n,) = _whole_degrees((n,), 0)
    _check_degree(f.m, n)
    block = np.empty((1, f.size), dtype=complex)
    return SampledFunction(f.m, _synthesis(np.fft.fft(f.values), (n,), block)[0].real)


# Least work, in transform points (degrees times 2**m samples), that each
# half of a sweep must hold for its split into two jobs to pay. Forking,
# piping the result back and reaping take about 5 ms on 2 shared cores, the
# time of about 300 000 points at the 16 ns a point of four-row blocks
# (15-22 ns measured at m=12 and m=16), so the floor asks for about three
# times that. At the floor the split about breaks even (r <= 32 at m=16:
# 34-60 ms forked against 38-49 ms serially); at twice the floor it pays
# (r <= 64: 52-54 against 70-93 ms) and on r <= 512 it saves 0.2-0.3 s of
# 0.53-0.64 s. derand's per-halving records (31 degrees on 2**12 points at
# m=12, a half of about 61 000 points, 1.3-2 ms serially against 5.3-7.2 ms
# forked) stay one job; the r <= 512 sweeps at m=16 (halves of 2**24 points)
# fork. It cannot change a result: the forked and the serial sweeps are
# bitwise the same.
_SWEEP_FORK_MIN = 1 << 20


def sup_partial_sums(f: SampledFunction, degrees) -> list[tuple[int, float]]:
    """Sup norms of S_n f over the grid, for each requested degree, in
    ascending order of degree. Each job fills one block of _BLOCK_ROWS rows
    with _synthesis, four degrees at a time, and reuses it. A long sweep
    hands the earlier and the later half of its degrees to _fork_map as two
    jobs (see the _fork module); a sup does not depend on the block or the
    process it is computed in, so the list is bitwise the serial one and
    each sup is bitwise max |partial_sum(f, n)|. Of the spectrum only the
    band up to the top degree is kept, and each row's |x| is written over
    its own imaginary part, so a sweep holds no full spectrum and no |x|
    row beside its block."""
    degs = sorted(set(_whole_degrees(degrees, 0)))
    for n in degs:
        _check_degree(f.m, n)
    top = degs[-1]
    spec = np.fft.fft(f.values)
    # only the band |k| <= top is read: frequencies 0 .. top, then -top .. -1,
    # which _synthesis reads at the same offsets from either end
    spec = np.concatenate([spec[: top + 1], spec[spec.size - top :]])

    def sups(share):
        block = np.empty((_BLOCK_ROWS, f.size), dtype=complex)
        out = []
        for at in range(0, len(share), _BLOCK_ROWS):
            for row in _synthesis(spec, share[at : at + _BLOCK_ROWS], block):
                # |x| over the imaginary parts, which no sup reads: the
                # largest of a row's doubles is then max |x|, taken in one
                # contiguous pass (abs turns a -0.0 into 0.0)
                np.abs(row.real, out=row.imag)
                out.append(abs(float(row.view(float).max())))
        return out

    cut = len(degs) // 2
    shares = [degs[:cut], degs[cut:]] if cut * f.size >= _SWEEP_FORK_MIN else [degs]
    done = _fork_map([functools.partial(sups, share) for share in shares])
    return list(zip(degs, sum(done, [])))


def a_norm(f: SampledFunction) -> float:
    """Sum of |c_k| over the distinct grid frequencies."""
    return float(np.sum(np.abs(coeffs(f).c)))


# --- Block integrals of the kernel ------------------------------------------
#
# The antiderivative of D_n is A(u) = u + sum_{j<=n} sin(2*pi*j*u) / (pi*j),
# so every block integral is an exact difference of two A values. Adaptive
# quadrature serves as the independent oracle in the test suite.


def _kernel_antiderivative(n: int, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = u.astype(float).copy()
    if n > 0:
        j = np.arange(1, n + 1)
        out = out + np.sin(2.0 * np.pi * np.outer(u, j)) @ (1.0 / (np.pi * j))
    return out


def kernel_block_integral(n: int, k: int, j: int) -> float:
    """Integral of D_n(j/n - t) over the block [k/n, (k+1)/n]."""
    message = "need n >= 1 and 0 <= k, j < n"
    n, k, j = _whole(n, 1, message), _whole(k, 0, message), _whole(j, 0, message)
    if not (k < n and j < n):
        raise ValueError(message)
    hi = (j - k) / n
    lo = (j - k - 1) / n
    vals = _kernel_antiderivative(n, np.array([hi, lo]))
    return float(vals[0] - vals[1])


def kernel_block_matrix(n: int) -> np.ndarray:
    """All block integrals at once; entry [k, j] matches kernel_block_integral.

    The integral depends on k and j only through j - k, so one antiderivative
    sweep over the 2n + 1 distinct differences fills the whole table.
    """
    n = _whole(n, 1, "need n >= 1")
    d = np.arange(-n, n + 1) / n
    a = _kernel_antiderivative(n, d)
    # integral for difference index delta = j - k is a[delta + n] - a[delta + n - 1]
    by_delta = a[1:] - a[:-1]  # index delta + n - 1 + 1 -> delta in [-n+1 .. n]
    kk, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    delta = jj - kk  # in [-(n-1), n-1]
    return by_delta[delta + n - 1]


def circ_dist(k, j, n: int):
    """Circular index distance min(|k-j|, n - |k-j|)."""
    d = np.abs(np.asarray(k) - np.asarray(j))
    return np.minimum(d, n - d)
