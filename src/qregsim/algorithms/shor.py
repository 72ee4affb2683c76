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
A classical wrapper reduces factoring to order finding in the usual way.
"""

from __future__ import annotations

import math

import numpy as np

from ..measurement import RandomSource, _draw_index, _inverse_cdf
from ..measurement import measure_qubits  # noqa: F401  (bound by perfbench/tracing.py)
from ..state import _is_int, _owned, get_max_qubits
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
    """a**x mod mod_n for every exponent x < 2**t, filled by doubling blocks.

    Each block is the one before it times a**k: exact in int64, since every
    product stays below mod_n**2 <= 2**t.
    """
    powers = np.empty(1 << t, dtype=np.int64)
    powers[0] = 1
    k = 1
    while k < 1 << t:
        powers[k : 2 * k] = powers[:k] * pow(a, k, mod_n) % mod_n
        k *= 2
    return powers


def _exponent_width(mod_n: int) -> int:
    """Exponent register width t for ``mod_n``, within the cap."""
    t = (mod_n * mod_n - 1).bit_length()
    if t > get_max_qubits():
        raise ValueError(
            f"period finding for mod_n={mod_n} needs {t} qubits, "
            f"exceeding the cap of {get_max_qubits()}"
        )
    return t


def shor_period(a: int, mod_n: int, rng: RandomSource) -> int:
    """The multiplicative order of ``a`` modulo ``mod_n``.

    Requires 2 <= a < mod_n with gcd(a, mod_n) = 1 and the
    t = bit_length(mod_n**2 - 1) exponent qubits within the qubit cap.
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
    draw_f = _inverse_cdf(histogram / (1 << t))
    for _ in range(PERIOD_RETRY_CAP):
        f = int(draw_f(rng.uniform()))
        comb = np.zeros(1 << t, dtype=np.complex128)
        comb[powers == f] = 1.0 / math.sqrt(histogram[f])
        # Measuring every exponent qubit reads the basis index itself; the
        # collapsed state is not needed.
        y = _draw_index(inverse_qft(_owned(t, comb)).probabilities(), rng.uniform())
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
