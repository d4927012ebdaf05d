"""Domain types shared by every other module.

All types are immutable after construction and safe to share across
threads. Validation happens eagerly in ``__post_init__`` so that an
instance that exists is an instance that is valid; the checks that need
the horizon too (barrier ordering, knot coverage) run where it is known,
in ``BarrierSet.check_ordering`` and ``BarrierCurve.value_at``.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field


class ValidationError(ValueError):
    """Base class for every input rejection raised by this package."""


class DomainError(ValidationError):
    """A scalar field is outside its admissible range (sigma, T, K, ...)."""


class BarrierOrderError(ValidationError):
    """Lower barrier does not stay strictly below the upper barrier."""


class KnotOrderError(ValidationError):
    """Tabulated barrier knots are not strictly increasing or do not cover [0, T]."""


class NumericsError(RuntimeError):
    """A numerical procedure failed to converge or to bracket its target.

    Distinct from ValidationError: the inputs were admissible, the
    computation itself could not deliver (no sign change in a bracket,
    sweep never stabilizing, target outside an attainable range).
    """


def require_growth(growth: float) -> None:
    """Reject a barrier growth rate that is NaN or infinite."""
    if not math.isfinite(growth):
        raise DomainError("barrier growth must be finite")


def require_price_level(name: str, value: float) -> None:
    """Reject a price level (s0, strike, barrier) that is not positive and finite.

    Written so that NaN fails too: every comparison with NaN is false.
    """
    if not (0.0 < value < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def side_sign(side: str) -> float:
    """1.0 for "lower", -1.0 for "upper": the sign that mirrors one side onto the other."""
    if side == "lower":
        return 1.0
    if side == "upper":
        return -1.0
    raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")


def inception_side(s0: float, lower: float | None, upper: float | None,
                   past_ok: bool = True) -> str | None:
    """The side ("lower"/"upper") s0 is on or past at t = 0, else None.

    lower and upper are the levels at t = 0, None for an absent side.
    Decided on the log gaps the path engine walks, so that every pricer,
    breach route and the classifier see one answer within ulps of a line:
    ln s0 - ln lower to the lower line, and ln upper - ln s0 to the upper
    one, or in a corridor the width ln upper - ln lower less the lower
    gap. Past a line is a DomainError unless past_ok: the pricers knock
    out there, and the closed, Monte Carlo and PDE breach routes refuse it.
    """
    x0 = math.log(s0)
    gap_l = math.inf if lower is None else x0 - math.log(lower)
    # in a corridor the engine measures the upper line from the lower one
    gap_u = (math.inf if upper is None else math.log(upper) - x0 if lower is None
             else (math.log(upper) - math.log(lower)) - gap_l)
    side, level, gap = ("lower", lower, gap_l) if gap_l <= 0.0 else ("upper", upper, gap_u)
    if not gap <= 0.0:  # NaN too: no comparison with it holds
        return None
    if gap < 0.0 and not past_ok:
        raise DomainError(f"s0={s0} past the {side} barrier {level}")
    return side


@dataclass(frozen=True)
class MarketParams:
    """Lognormal market bundle: drift, volatility, rate, horizon.

    Under the risk-neutral measure ``mu = r``; for an asset paying a
    continuous dividend yield q, pass ``mu = r - q``.
    """

    mu: float
    sigma: float
    r: float
    T: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.T > 0.0) or not math.isfinite(self.T):
            raise DomainError(f"T must be positive and finite, got {self.T}")
        if not math.isfinite(self.sigma * self.sigma * self.T):
            raise DomainError(
                f"variance sigma^2*T must be finite, got sigma={self.sigma}, T={self.T}"
            )
        for name in ("mu", "r"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


@dataclass(frozen=True)
class McConfig:
    """Paths, steps and seed: all that a Monte Carlo result depends on.
    steps_per_year sets the uniform nodes; the engine adds one at each knot off them."""

    paths: int = 100_000
    steps_per_year: int = 365
    seed: int = 0

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise DomainError(f"paths must be >= 1, got {self.paths}")
        if self.steps_per_year < 1:
            raise DomainError(f"steps_per_year must be >= 1, got {self.steps_per_year}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")


class BarrierShape(enum.Enum):
    EXPONENTIAL = "exponential"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class BarrierCurve:
    """One absorbing boundary level as a function of time.

    Two shapes: a line in log-level, ``B * exp(growth * t)`` (a flat
    barrier is the line at growth 0), and a table of knots interpolated
    linearly in log-level (so positivity is automatic and exponential
    segments are represented exactly).
    """

    shape: BarrierShape
    level: float = math.nan
    growth: float = 0.0
    knots: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.shape is BarrierShape.EXPONENTIAL:
            require_price_level("barrier level", self.level)
            require_growth(self.growth)
        else:
            if len(self.knots) < 2:
                raise KnotOrderError("tabulated barrier needs at least two knots")
            ts = [t for t, _ in self.knots]
            if not all(math.isfinite(t) for t in ts):
                raise DomainError(f"tabulated barrier times must be finite, got {ts}")
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise KnotOrderError(f"knot times must be strictly increasing, got {ts}")
            if any(not (lv > 0.0 and math.isfinite(lv)) for _, lv in self.knots):
                raise DomainError("tabulated barrier levels must be positive and finite")
            if ts[0] > 0.0:
                raise KnotOrderError(f"first knot must be at t <= 0, got {ts[0]}")

    @classmethod
    def flat(cls, level: float) -> "BarrierCurve":
        return cls.exponential(level, 0.0)

    @classmethod
    def exponential(cls, level: float, growth: float) -> "BarrierCurve":
        return cls(shape=BarrierShape.EXPONENTIAL, level=level, growth=growth)

    @classmethod
    def tabulated(cls, knots) -> "BarrierCurve":
        return cls(shape=BarrierShape.TABULATED, knots=tuple((float(t), float(v)) for t, v in knots))

    def value_at(self, t: float, T: float) -> float:
        """Level at time t in [0, T]; NumericsError where a line leaves double precision."""
        if t < 0.0 or t > T:
            raise DomainError(f"t={t} outside [0, {T}]")
        if self.shape is BarrierShape.EXPONENTIAL:
            try:
                level = self.level * math.exp(self.growth * t)
            except OverflowError:
                level = math.inf
            if not 0.0 < level < math.inf:
                raise NumericsError(f"barrier {self.level}*exp({self.growth}*{t}) leaves double precision")
            return level
        knots = self.knots
        if t > knots[-1][0]:
            raise KnotOrderError(
                f"tabulated barrier covers [0, {knots[-1][0]}], asked for t={t}"
            )
        if t <= knots[0][0]:
            return knots[0][1]
        # the first knot at or after t; (t,) sorts before every (t, level)
        i = bisect.bisect_left(knots, (t,))
        (t0, v0), (t1, v1) = knots[i - 1], knots[i]
        if t == t1:
            return v1  # keep knots exact, exp(log v) can drift an ulp
        w = (t - t0) / (t1 - t0)
        return math.exp((1.0 - w) * math.log(v0) + w * math.log(v1))

    def breakpoints(self, T: float) -> tuple[float, ...]:
        """0, T and the knot times inside (0, T), in increasing order.

        The log-level is linear in t between consecutive breakpoints, so
        on [0, T] it takes its extremes at breakpoints.
        """
        return (0.0, *(t for t, _ in self.knots if 0.0 < t < T), T)

    def extremes(self, T: float) -> tuple[float, float]:
        """Lowest and highest level over [0, T]."""
        levels = [self.value_at(t, T) for t in self.breakpoints(T)]
        return min(levels), max(levels)


@dataclass(frozen=True)
class BarrierSet:
    """Optional lower and upper absorbing curves; at most one of each."""

    lower: BarrierCurve | None = None
    upper: BarrierCurve | None = None

    @property
    def any_present(self) -> bool:
        return self.lower is not None or self.upper is not None

    def levels_at(self, t: float, T: float) -> tuple[float | None, float | None]:
        """Lower and upper levels at time t in [0, T]; None for an absent side."""
        return (None if self.lower is None else self.lower.value_at(t, T),
                None if self.upper is None else self.upper.value_at(t, T))

    def side_at_inception(self, s0: float, T: float, past_ok: bool = True) -> str | None:
        """inception_side at the levels at t = 0."""
        return inception_side(s0, *self.levels_at(0.0, T), past_ok)

    def breakpoints(self, T: float) -> tuple[float, ...]:
        """0, T and both curves' knot times inside (0, T), in increasing order:
        between consecutive ones each barrier is log-linear in t."""
        curves = [c for c in (self.lower, self.upper) if c is not None]
        return tuple(sorted({0.0, T, *(t for c in curves for t in c.breakpoints(T))}))

    def check_ordering(self, T: float) -> None:
        """Require ln lower(t) < ln upper(t), the log width every image series
        divides by, for every t in [0, T]: levels whose logs round together are
        refused. The log gap is linear between breakpoints, so checking those
        times is exact.
        """
        if self.lower is None or self.upper is None:
            return
        for t in self.breakpoints(T):
            lo, hi = self.levels_at(t, T)
            if math.log(hi) - math.log(lo) <= 0.0:
                raise BarrierOrderError(
                    f"lower barrier {lo} not below upper barrier {hi} in log-price at t={t}"
                )


class Payoff(enum.Enum):
    CALL = "call"
    PUT = "put"


def _to_payoff(value) -> Payoff:
    """Payoff from itself or "call"/"put"; a misspelling is refused, never read as a put."""
    if isinstance(value, Payoff):
        return value
    try:
        return Payoff(value)
    except ValueError:
        raise DomainError(f"payoff must be 'call' or 'put', got {value!r}") from None


@dataclass(frozen=True)
class OptionSpec:
    """Knock-out option: payoff, strike and barriers; once knocked out it pays nothing."""

    payoff: Payoff
    strike: float
    barriers: BarrierSet = field(default_factory=BarrierSet)

    def __post_init__(self) -> None:
        object.__setattr__(self, "payoff", _to_payoff(self.payoff))
        require_price_level("strike", self.strike)


@dataclass(frozen=True)
class CriticalPrices:
    """Extremal critical prices per side with the times attaining them.

    ``s_ml``: the smallest initial price at which a lower barrier stays
    irrelevant at the stated accuracy over the whole horizon (maximum of
    the lower critical curve). ``s_mu``: the mirror value for an upper
    barrier (minimum of the upper critical curve). Sides are None when the
    corresponding barrier is absent.
    """

    s_ml: float | None = None
    t_at_max: float | None = None
    s_mu: float | None = None
    t_at_min: float | None = None


class Classification(enum.Enum):
    VANILLA = "Vanilla"
    DOWN_AND_OUT = "DownAndOut"
    UP_AND_OUT = "UpAndOut"
    TYPICAL_DOUBLE_BARRIER = "TypicalDoubleBarrier"
    KNOCKED_OUT_AT_INCEPTION = "KnockedOutAtInception"


class PricingMethod(enum.Enum):
    CLOSED = "Closed"
    MONTE_CARLO = "MonteCarlo"


@dataclass(frozen=True)
class PriceEstimate:
    value: float
    std_error: float = 0.0
    method: PricingMethod = PricingMethod.CLOSED

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise DomainError("standard error cannot be negative")
