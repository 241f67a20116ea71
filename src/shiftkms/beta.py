"""Greedy and quasi-greedy expansions of 1 in a non-integer base.

The greedy digits of 1 follow the Renyi recursion x_0 = 1, d_k = floor(b x_{k-1}),
x_k = b x_{k-1} - d_k.  When the recursion terminates (some x_k = 0) the
lexicographic admissibility reference is the quasi-greedy form
(d_1 ... d_{m-1} (d_m - 1)) repeated.

Digits are discontinuous in the base, so arithmetic runs in mpmath at a
precision scaled to the requested depth plus a guard.  A product b*x landing
within ``snap_tol`` of an integer is treated as an exact hit of the intended
base (termination) and flagged; a product closer to an integer than the
accumulated float error bound, but outside ``snap_tol``, raises rather than
guessing the digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

DEFAULT_GUARD_BITS = 30
DEFAULT_SNAP_TOL = 1e-9


class UncertainDigitError(ValueError):
    """A greedy digit could not be determined at the working precision."""


@dataclass(frozen=True)
class BetaExpansion:
    """Expansion-of-1 report for a base b > 1.

    greedy holds the computed greedy digits (the final digit of a terminating
    expansion may equal floor(b), outside the shift alphabet).  For a
    terminating expansion quasi_greedy_block is the repeating block of the
    quasi-greedy form; otherwise the quasi-greedy expansion is the greedy one.
    periodicity is a (preperiod, period) candidate detected within the
    computed digits, or None; it is a desk-depth observation, not a proof.
    """

    beta: float
    greedy: tuple[int, ...]
    terminated: bool
    termination_index: int | None
    snapped: bool
    quasi_greedy_block: tuple[int, ...] | None
    periodicity: tuple[int, int] | None

    def quasi_greedy_digits(self, n: int) -> tuple[int, ...]:
        """First n digits of the quasi-greedy expansion of 1."""
        if self.terminated:
            block = self.quasi_greedy_block
            reps = -(-n // len(block))
            return (block * reps)[:n]
        if n > len(self.greedy):
            raise ValueError(
                f"only {len(self.greedy)} digits were computed; rebuild with a larger n_digits"
            )
        return self.greedy[:n]


def _detect_periodicity(digits: tuple[int, ...]) -> tuple[int, int] | None:
    """Smallest (preperiod, period) repeating through the whole computed tail.

    The periodic tail must span at least three full periods and eight digits,
    otherwise short coincidences at the end of the data would always match.
    """
    n = len(digits)
    for p in range(1, n // 3 + 1):
        for p0 in range(0, n - max(3 * p, 8) + 1):
            if all(digits[i] == digits[i + p] for i in range(p0, n - p)):
                return (p0, p)
    return None


def beta_expansion_of_one(
    beta,
    n_digits: int,
    snap_tol: float = DEFAULT_SNAP_TOL,
    guard_bits: int = DEFAULT_GUARD_BITS,
) -> BetaExpansion:
    """Greedy digits of 1 in base beta, with termination and periodicity report.

    Parameters
    ----------
    beta : float or str
        Base > 1.  A float is used at its exact binary value; a string is
        parsed as a decimal at the working precision.
    n_digits : int
        Number of greedy digits to compute (>= 1).
    snap_tol : float
        Distance to an integer below which b*x is taken as an exact hit.
        Set to 0 to disable snapping.
    guard_bits : int
        Extra precision bits beyond what the requested depth consumes.
    """
    if n_digits < 1:
        raise ValueError("n_digits must be >= 1")
    beta_float = float(mpmath.mpf(beta) if isinstance(beta, str) else mpmath.mpf(float(beta)))
    if beta_float <= 1.0:
        raise ValueError(f"beta must be > 1, got {beta_float}")
    prec = 64 + guard_bits + int(math.ceil(n_digits * math.log2(beta_float)))
    with mpmath.workprec(prec):
        b = mpmath.mpf(beta) if isinstance(beta, str) else mpmath.mpf(float(beta))
        err_bound = mpmath.mpf(2) ** (-(prec - 8))
        digits: list[int] = []
        terminated = False
        snapped = False
        termination_index = None
        x = mpmath.mpf(1)
        for k in range(1, n_digits + 1):
            y = b * x
            nearest = mpmath.nint(y)
            gap = abs(y - nearest)
            if gap == 0 or gap <= snap_tol:
                digits.append(int(nearest))
                terminated = True
                snapped = gap != 0
                termination_index = k
                break
            if gap <= err_bound:
                raise UncertainDigitError(
                    f"digit {k}: b*x is within the accumulated error bound of an integer; "
                    "increase guard_bits or supply beta more precisely"
                )
            d = int(mpmath.floor(y))
            digits.append(d)
            x = y - d
            err_bound *= b
    greedy = tuple(digits)
    block = None
    if terminated:
        block = greedy[:-1] + (greedy[-1] - 1,)
        if block[-1] < 0:
            # greedy of 1 always ends in a digit >= 1 when it terminates
            raise UncertainDigitError("terminating expansion ended in digit 0; base is suspect")
        periodicity = (0, len(block))
    else:
        periodicity = _detect_periodicity(greedy)
    return BetaExpansion(
        beta=beta_float,
        greedy=greedy,
        terminated=terminated,
        termination_index=termination_index,
        snapped=snapped,
        quasi_greedy_block=block,
        periodicity=periodicity,
    )

