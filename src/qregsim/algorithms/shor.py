"""Order finding and integer factoring via the period-finding circuit.

The circuit prepares (1/sqrt(2**t)) * sum_x |x>|a**x mod N>, measures the
function register, inverse-transforms the exponent register and recovers
the period from the measured value by continued fractions.  Neither the
modular arithmetic nor the function register is built: measuring it reads
f with probability #{x : a**x = f (mod N)} / 2**t and leaves the t exponent
qubits in the uniform comb over those x, so each sample draws f from that
histogram and prepares the comb directly as amplitudes.  The transformed
comb's exponent y is drawn from its distribution with one uniform, as
measuring all t qubits would, without building the collapsed state.
Within one call the comb of f is x_f + j*r for j below its size, so its
transformed distribution depends on the size alone, and the size takes at
most two values: a call runs one transform per comb size it draws, and
later samples of that size reuse its CDF.
A classical wrapper reduces factoring to order finding in the usual way.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from ..measurement import RandomSource, _inverse_cdf
from ..measurement import measure_qubits  # noqa: F401  (bound by perfbench/tracing.py)
from ..state import _donated, _is_int, get_max_qubits
from .qft import inverse_qft

#: Measurement retries per base before giving up on order finding.
PERIOD_RETRY_CAP = 64
#: Random base choices before giving up on factoring.
FACTOR_RETRY_CAP = 32


class RetryLimitExceeded(RuntimeError):
    """Raised when the sampling retry budget is exhausted."""


def _convergent_denominators(numerator: int, denominator: int, bound: int) -> list[int]:
    """Denominators of the continued-fraction convergents of n/d below ``bound``."""
    denominators = []
    h_prev, h = 1, 0
    a, b = numerator, denominator
    while b:
        q = a // b
        a, b = b, a - q * b
        h_prev, h = h, q * h + h_prev
        if h >= bound:
            break
        if h > 1:
            denominators.append(h)
    return denominators


def _minimal_order(candidate: int, a: int, mod_n: int) -> int:
    """Smallest divisor r of ``candidate`` with a**r = 1 (mod mod_n)."""
    for r in range(1, candidate + 1):
        if candidate % r == 0 and pow(a, r, mod_n) == 1:
            return r
    return candidate


def _powers(a: int, mod_n: int, t: int) -> np.ndarray:
    """a**x mod mod_n for every exponent x < 2**t, as one outer product.

    With h = t // 2, the exponent x = i * 2**h + j splits a**x into
    a**(i * 2**h) * a**j: the table is the outer product of those two short
    columns of residues, reduced in place.  Every product stays below
    mod_n**2 <= 2**t, so int32 is exact for t < 32 and int64 beyond, and
    the table is the only array of its size.
    """
    half = t // 2
    dtype = np.int32 if t < 32 else np.int64

    def residues(base: int, count: int) -> np.ndarray:
        column = [1]
        for _ in range(count - 1):
            column.append(column[-1] * base % mod_n)
        return np.array(column, dtype=dtype)

    high = residues(pow(a, 1 << half, mod_n), 1 << (t - half))
    powers = np.multiply.outer(high, residues(a, 1 << half)).reshape(-1)
    return np.remainder(powers, mod_n, out=powers)


def _exponent_width(mod_n: int) -> int:
    """Exponent register width t for ``mod_n``, within the cap."""
    t = (mod_n * mod_n - 1).bit_length()
    if t > get_max_qubits():
        raise ValueError(
            f"period finding for mod_n={mod_n} needs {t} qubits, "
            f"exceeding the cap of {get_max_qubits()}"
        )
    return t


def _function_cdf(histogram: np.ndarray, t: int) -> Callable[[float], np.intp]:
    """Inverse CDF of the measured function value, whose ``histogram``
    counts the 2**t exponents that give each value.

    The lookup runs on integers: the partial sums of ``histogram``
    against ``u * 2**t``.  Both are exact, and so is every partial sum of
    ``histogram / 2**t`` and the division by its last one, 1.0, so this
    picks the index that ``_inverse_cdf(histogram / 2**t)`` picks.
    """
    edges = histogram.cumsum()
    scale = 1 << t
    return lambda u: edges.searchsorted(u * scale, side="right")


def _exponent_cdf(
    powers: np.ndarray, f: int, size: int, t: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse CDF of the transformed comb of ``f``, which has ``size`` exponents.

    The transform takes the comb over and runs in place in it, with no
    copy.  Neither outlives the call, so a kept CDF is the only array that
    stays beside the next size's transform.
    """
    comb = np.zeros(1 << t, dtype=np.complex128)
    comb[powers == f] = 1.0 / math.sqrt(size)
    return _inverse_cdf(inverse_qft(_donated(t, comb)).probabilities())


def shor_period(a: int, mod_n: int, rng: RandomSource) -> int:
    """The multiplicative order of ``a`` modulo ``mod_n``.

    Requires 2 <= a < mod_n with gcd(a, mod_n) = 1 and the
    t = bit_length(mod_n**2 - 1) exponent qubits within the qubit cap.
    Each sample draws f and then y, one uniform each; the first sample of
    each comb size runs the inverse transform, so a call runs at most two.
    Raises RetryLimitExceeded if no sample yields the period in the budget.
    """
    if not (_is_int(a) and _is_int(mod_n) and 2 <= a < mod_n):
        raise ValueError(f"base must satisfy 2 <= a < mod_n, got a={a!r}, mod_n={mod_n!r}")
    a, mod_n = int(a), int(mod_n)
    if math.gcd(a, mod_n) != 1:
        raise ValueError(f"gcd({a}, {mod_n}) != 1: base shares a factor with the modulus")
    t = _exponent_width(mod_n)
    powers = _powers(a, mod_n, t)
    histogram = np.bincount(powers)
    draw_f = _function_cdf(histogram, t)
    # By the shift theorem a transformed comb's distribution depends on its
    # size alone, so each size's CDF is kept for the rest of the call.
    draw_y = {}
    for _ in range(PERIOD_RETRY_CAP):
        f = int(draw_f(rng.uniform()))
        size = int(histogram[f])
        if size not in draw_y:
            draw_y[size] = _exponent_cdf(powers, f, size, t)
        # Measuring every exponent qubit reads the basis index itself; the
        # collapsed state is not needed.
        y = int(draw_y[size](rng.uniform()))
        for r in _convergent_denominators(y, 1 << t, mod_n):
            if pow(a, r, mod_n) == 1:
                return _minimal_order(r, a, mod_n)
    raise RetryLimitExceeded(
        f"no period found for a={a} mod {mod_n} after {PERIOD_RETRY_CAP} samples"
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def _prime_power_root(n: int) -> int | None:
    for k in range(2, n.bit_length() + 1):
        root = round(n ** (1.0 / k))
        for candidate in (root - 1, root, root + 1):
            if candidate > 1 and candidate**k == n:
                return candidate
    return None


def shor_factor(mod_n: int, rng: RandomSource) -> tuple[int, int]:
    """Nontrivial factors (p, q) of an odd composite that is not a prime power.

    Classical reduction: random base a, gcd shortcut, order finding, then
    gcd(a**(r/2) +- 1, mod_n); retries with fresh bases up to the cap.
    """
    if not _is_int(mod_n) or mod_n < 3 or mod_n % 2 == 0:
        raise ValueError(f"mod_n must be an odd integer >= 3, got {mod_n!r}")
    mod_n = int(mod_n)
    # Before the primality tests, which take too long or overflow on
    # moduli far beyond the cap.
    _exponent_width(mod_n)
    if _is_prime(mod_n):
        raise ValueError(f"{mod_n} is prime; nothing to factor")
    if _prime_power_root(mod_n) is not None:
        raise ValueError(f"{mod_n} is a prime power; not supported")
    for _ in range(FACTOR_RETRY_CAP):
        a = rng.integer(2, mod_n)
        shared = math.gcd(a, mod_n)
        if shared > 1:
            p = shared
        else:
            r = shor_period(a, mod_n, rng)
            if r % 2 == 1:
                continue
            half = pow(a, r // 2, mod_n)
            if half == mod_n - 1:
                continue
            p = math.gcd(half - 1, mod_n)
            if p in (1, mod_n):
                p = math.gcd(half + 1, mod_n)
            if p in (1, mod_n):
                continue
        q = mod_n // p
        return (p, q) if p <= q else (q, p)
    raise RetryLimitExceeded(
        f"no factors of {mod_n} found after {FACTOR_RETRY_CAP} base choices"
    )
