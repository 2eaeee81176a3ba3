"""Growth sequences and the fixed norm shape.

The three sequences n1, n2, n3 control every size bound in the calculus; the
one shape f(n, k) = lg(n/k), clamped at 0, turns a creature's half-norm and
counter into its norm, and kprime is the halving witness.  All
integer-vs-norm comparisons are done in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, PreconditionError, ValidationError


def log2ceil(x: int) -> int:
    """Ceiling of lg(x) for x >= 1, with the 0 -> 0 convention."""
    if x < 0:
        raise DomainError(f"log2ceil of negative {x}")
    if x == 0:
        return 0
    return (x - 1).bit_length()


def log2ceil_ratio(num: int, den: int) -> int:
    """Ceiling of lg(num/den), clamped to 0 for ratios <= 1."""
    if den <= 0 or num < 0:
        raise DomainError(f"log2ceil_ratio({num}, {den})")
    if num <= den:
        return 0
    # the smallest m with 2^m >= ceil(num / den), that is with 2^m * den >= num
    return ((num - 1) // den).bit_length()


def log2floor_ratio(num: int, den: int) -> int:
    """Floor of lg(num/den) for num >= den >= 1."""
    if den <= 0 or num < den:
        raise DomainError(f"log2floor_ratio({num}, {den})")
    q = num // den
    return q.bit_length() - 1


@dataclass(frozen=True)
class GrowthSequences:
    """Validated growth sequences; n1[i], n2[i], n3[i] for i <= imax."""

    imax: int
    n1: tuple[int, ...]
    n2: tuple[int, ...]
    n3: tuple[int, ...]

    def validate(self) -> None:
        """Re-check every inequality; raises naming the first violation."""
        for name, seq in (("n1", self.n1), ("n2", self.n2), ("n3", self.n3)):
            if len(seq) != self.imax + 1:
                raise ValidationError(f"{name} must have length imax+1 = {self.imax + 1}")
            for i, v in enumerate(seq):
                if v <= 0:
                    raise ValidationError(f"{name}[{i}] = {v} not strictly positive")
        for i in range(self.imax + 1):
            if not i * self.n1[i] < self.n3[i]:
                raise ValidationError(f"i*n1[{i}] < n3[{i}] violated")
        for i in range(self.imax):
            if not self.n2[i] < self.n1[i + 1]:
                raise ValidationError(f"n2[{i}] < n1[{i + 1}] violated")
        for i in range(self.imax):
            if not self.n1[i] * self.n1[i] <= self.n1[i + 1]:
                raise ValidationError(f"n1[{i}]*n1[{i}] <= n1[{i + 1}] violated")
        for i in range(self.imax + 1):
            if not self.n1[i] <= self.n2[i]:
                raise ValidationError(f"n1[{i}] <= n2[{i}] violated")

    def kind_for_dom_size(self, size: int) -> int:
        """Smallest kind i whose base-domain window admits `size` points.

        Empty domains have kind 0 (n2[-1] is treated as 0).
        """
        if size < 0:
            raise DomainError("negative domain size")
        if size == 0:
            return 0
        for i in range(1, self.imax + 2):
            if i - 1 <= self.imax and size <= self.n2[i - 1]:
                return i
        raise DomainError(
            f"domain size {size} exceeds n2[imax] = {self.n2[self.imax]}; raise imax"
        )


def make_growth(
    imax: int,
    profile: str | tuple[Sequence[int], Sequence[int], Sequence[int]] = "default",
) -> GrowthSequences:
    """Build growth sequences; `profile` is "default" or a (n1, n2, n3) triple."""
    if imax < 0:
        raise DomainError("imax must be >= 0")
    if profile == "default":
        n1 = tuple(2 ** (2 ** (i + 2)) for i in range(imax + 1))
        n2 = n1
        n3 = tuple((i + 2) * n2[i] * 4 for i in range(imax + 1))
    elif isinstance(profile, tuple) and len(profile) == 3:
        n1, n2, n3 = (tuple(int(v) for v in seq) for seq in profile)
    else:
        raise DomainError(f"unknown growth profile {profile!r}")
    g = GrowthSequences(imax=imax, n1=n1, n2=n2, n3=n3)
    g.validate()
    return g


@dataclass(frozen=True)
class NormShape:
    """The norm shape f(n, k) = lg(n/k) clamped at 0, with its halving witness.

    The shape is fixed: no fields, static methods only.  `f` maps (n, k) with
    k >= 1 to a nonnegative real; `kprime` maps (n, k) with f(n, k) >= 1 to an
    integer strictly between k and n.  The exact comparators are used whenever
    a norm is compared to an integer or to another norm shifted by an integer,
    so no decision suffers float rounding.
    """

    @staticmethod
    def f(n: int, k: int) -> float:
        if k < 1:
            raise DomainError("shape f requires k >= 1")
        if n <= k:
            return 0.0
        return math.log2(n / k)

    @staticmethod
    def kprime(n: int, k: int) -> int:
        """round(sqrt(nk)), kept strictly between k and n."""
        kd = _round_sqrt(n * k)
        return min(max(kd, k + 1), n - 1)

    @staticmethod
    def norm_geq(n: int, k: int, threshold: int) -> bool:
        """Exact f(n, k) >= threshold for integer thresholds."""
        if k < 1:
            raise DomainError("shape f requires k >= 1")
        if threshold <= 0:
            return True
        return n >= k * (1 << threshold)

    @staticmethod
    def norm_pos(n: int, k: int) -> bool:
        """Exact f(n, k) > 0."""
        return n > k

    @staticmethod
    def norm_geq_shifted(n1: int, k1: int, n2: int, k2: int, drop: int) -> bool:
        """Exact f(n1, k1) >= f(n2, k2) - drop for integer drop >= 0."""
        # clamped values: f(n,k) = max(0, lg(n/k))
        lhs_zero = n1 <= k1
        rhs_zero = n2 <= k2
        if rhs_zero:
            return True  # rhs - drop <= 0 <= lhs
        if lhs_zero:
            # need f(n2,k2) <= drop
            return n2 <= k2 * (1 << drop)
        # lg(n1/k1) >= lg(n2/k2) - drop  <=>  n1*k2*2^drop >= n2*k1
        return n1 * k2 * (1 << drop) >= n2 * k1


def _round_sqrt(x: int) -> int:
    """round(sqrt(x)) in exact integer arithmetic (ties cannot occur)."""
    s = math.isqrt(x)
    return s + 1 if x - s * s > s else s


def default_shape() -> NormShape:
    """An instance of the fixed shape, for the slot `homogenize.decide` keeps."""
    return NormShape()


def halving_witness(n: int, k: int) -> int:
    """The halving witness k' with k < k' < n; requires f(n, k) >= 1."""
    if k < 1:
        raise DomainError("halving witness requires k >= 1")
    if not NormShape.norm_geq(n, k, 1):
        raise PreconditionError(
            f"halving undefined below one unit of norm: f({n}, {k}) < 1"
        )
    if n - k < 2:
        raise PreconditionError(f"no integer lies strictly between {k} and {n}")
    return NormShape.kprime(n, k)
