"""Greedy and quasi-greedy expansions of 1 in a non-integer base.

The greedy digits of 1 follow the Renyi recursion x_0 = 1, d_k = floor(b x_{k-1}),
x_k = b x_{k-1} - d_k.  When the recursion terminates (some x_k = 0) the
lexicographic admissibility reference is the quasi-greedy form
(d_1 ... d_{m-1} (d_m - 1)) repeated.

Digits are discontinuous in the base, so the recursion runs exactly: every
accepted base is rational (a decimal string is p/q, a float its binary value),
and x_k is kept as an integer numerator over q^k.  A product b*x landing
within the fixed ``SNAP_TOL`` of an integer is treated as an exact hit of the
intended base (termination) and flagged.  Only a terminated expansion is
periodic, with its quasi-greedy block as the period: a non-integer rational is
no algebraic integer, so no Parry number (Parry 1960).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .spectral import as_count

SNAP_TOL = 1e-9  # b*x this close to an integer is an exact hit: bases given to ~10 decimals


@dataclass(frozen=True)
class BetaExpansion:
    """Expansion-of-1 report for a base b > 1.

    greedy holds the computed greedy digits (the final digit of a terminating
    expansion may equal floor(b), outside the shift alphabet).  For a
    terminating expansion quasi_greedy_block is the repeating block of the
    quasi-greedy form, purely periodic from the first digit; otherwise the
    quasi-greedy expansion is the greedy one, which is not eventually
    periodic, and quasi_greedy_block is None.
    """

    greedy: tuple[int, ...]
    terminated: bool
    snapped: bool
    quasi_greedy_block: tuple[int, ...] | None


def exact_base(beta) -> Fraction:
    """The exact value of a base: a string as the plain decimal it spells (no
    '_', which Fraction reads only from Python 3.11), anything else at the
    binary value of its float.  The one base rule: ValueError unless
    float(beta) is finite and > 1, so a base just above 1 that rounds to 1.0,
    which would snap to base 1, is refused too."""
    if isinstance(beta, str) and "_" in beta:
        raise ValueError(f"beta must be a plain decimal string, got {beta!r}")
    if not 1.0 < float(beta) < math.inf:  # also false for nan
        raise ValueError(f"beta must be a finite number > 1, got {beta!r}")
    return Fraction(beta) if isinstance(beta, str) else Fraction(float(beta))


def beta_expansion_of_one(beta, n_digits: int) -> BetaExpansion:
    """Greedy digits of 1 in base beta, with termination report.

    Parameters
    ----------
    beta : float or str
        Base > 1.  A float is used at its exact binary value; a string is
        parsed as an exact decimal.
    n_digits : int
        Number of greedy digits to compute (>= 1).
    """
    n_digits = as_count(n_digits, "n_digits", 1)
    b = exact_base(beta)
    p, q = b.numerator, b.denominator
    tol_num, tol_den = SNAP_TOL.as_integer_ratio()
    # x = num / den; b*x = p*num / (q*den) = d + r / (q*den), never reduced
    num = den = 1
    digits: list[int] = []
    terminated = False
    for _ in range(n_digits):
        den *= q
        d, r = divmod(p * num, den)
        up = 2 * r > den
        gap = den - r if up else r
        if gap == 0 or gap * tol_den <= tol_num * den:
            digits.append(d + up)
            terminated = True
            break
        digits.append(d)
        num = r
    greedy = tuple(digits)
    # the block's last digit is >= 0: an exact hit is b*x = d > 0, and a snap to 0 would need
    # b*x <= SNAP_TOL, but b > 1 and x > SNAP_TOL (x = 1, or the step before did not snap)
    block = greedy[:-1] + (greedy[-1] - 1,) if terminated else None
    return BetaExpansion(
        greedy=greedy,
        terminated=terminated,
        snapped=terminated and gap != 0,
        quasi_greedy_block=block,
    )
