"""Greedy and quasi-greedy expansions of 1 in a non-integer base.

The greedy digits of 1 follow the Renyi recursion x_0 = 1, d_k = floor(b x_{k-1}),
x_k = b x_{k-1} - d_k.  When the recursion terminates (some x_k = 0) the
lexicographic admissibility reference is the quasi-greedy form
(d_1 ... d_{m-1} (d_m - 1)) repeated.

Digits are discontinuous in the base, so the recursion runs exactly: every
accepted base is rational (a decimal string is p/q, a float its binary value),
and x_k is kept as an integer numerator over q^k.  A product b*x landing
within ``snap_tol`` of an integer is treated as an exact hit of the intended
base (termination) and flagged.  Only a terminated expansion is periodic, with
its quasi-greedy block as the period: a non-integer rational is no algebraic
integer, so no Parry number (Parry 1960).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .spectral import as_count

DEFAULT_SNAP_TOL = 1e-9


class UncertainDigitError(ValueError):
    """A snap would end the expansion of 1 in digit 0, so the base is suspect."""


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

    beta: float
    greedy: tuple[int, ...]
    terminated: bool
    snapped: bool
    quasi_greedy_block: tuple[int, ...] | None

    def quasi_greedy_digits(self, n: int) -> tuple[int, ...]:
        """First n digits of the quasi-greedy expansion of 1."""
        n = as_count(n, "n")
        if self.terminated:
            block = self.quasi_greedy_block
            reps = -(-n // len(block))
            return (block * reps)[:n]
        if n > len(self.greedy):
            raise ValueError(
                f"only {len(self.greedy)} digits were computed; rebuild with a larger n_digits"
            )
        return self.greedy[:n]


def exact_base(beta) -> Fraction:
    """The exact value of a base: a string as the decimal it spells, anything
    else at the binary value of its float."""
    return Fraction(beta) if isinstance(beta, str) else Fraction(float(beta))


def beta_expansion_of_one(beta, n_digits: int, snap_tol: float = DEFAULT_SNAP_TOL) -> BetaExpansion:
    """Greedy digits of 1 in base beta, with termination report.

    Parameters
    ----------
    beta : float or str
        Base > 1.  A float is used at its exact binary value; a string is
        parsed as an exact decimal.
    n_digits : int
        Number of greedy digits to compute (>= 1).
    snap_tol : float
        Distance to an integer below which b*x is taken as an exact hit.
        Set to 0 to disable snapping.
    """
    n_digits = as_count(n_digits, "n_digits", 1)
    b = exact_base(beta)
    beta_float = float(b)
    if beta_float <= 1.0:
        raise ValueError(f"beta must be > 1, got {beta_float}")
    p, q = b.numerator, b.denominator
    tol_num, tol_den = snap_tol.as_integer_ratio()
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
    block = None
    if terminated:
        block = greedy[:-1] + (greedy[-1] - 1,)
        if block[-1] < 0:
            # greedy of 1 always ends in a digit >= 1 when it terminates
            raise UncertainDigitError("terminating expansion ended in digit 0; base is suspect")
    return BetaExpansion(
        beta=beta_float,
        greedy=greedy,
        terminated=terminated,
        snapped=terminated and gap != 0,
        quasi_greedy_block=block,
    )
