"""Closed forms: vanilla, single-barrier knock-outs, double knock-out, breach.

This module and everything it imports use only the standard library,
so the closed-form commands never load NumPy or SciPy.

All formulas price European payoffs under lognormal dynamics with
continuous barrier monitoring and zero rebates. Knocked-at-inception
inputs (s0 at or beyond a barrier) price to zero rather than raising,
mirroring what the Monte Carlo engine reports for the same state.

The single-barrier forms come from the image (reflection) construction:
the risk-neutral density of the surviving path is the free density minus
a drift-weighted reflection about the barrier, and every price below is
that density integrated against the payoff slab. The double knock-out
uses the doubly-infinite image series with exponential-barrier exponents,
truncated adaptively. The breach probability is the reflection
principle's first-passage law for one flat barrier.
"""

from __future__ import annotations

import math

from ..model import (
    DomainError,
    MarketParams,
    Payoff,
    PriceEstimate,
    PricingMethod,
    require_price_level,
)
from ..numerics import std_normal_cdf, std_normal_sf


def _cdf_diff(hi: float, lo: float) -> float:
    """Phi(hi) - Phi(lo) for hi >= lo without tail cancellation.

    When both arguments sit in the same far tail the naive difference of
    cdf values loses everything; switching to survival functions on the
    right tail keeps the difference exact in magnitude.
    """
    if lo >= 0.0:
        d = std_normal_sf(lo) - std_normal_sf(hi)
    else:
        d = std_normal_cdf(hi) - std_normal_cdf(lo)
    return d if d > 0.0 else 0.0


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _reflected(log_w: float, a: float, b: float) -> float:
    """w * Phi(b) for a reflection weight w = exp(log_w) = phi(a) / phi(b).

    Past w = e^700 the weight overflows where the product need not. There
    the drift heads for the barrier and b^2 = a^2 + 2*log_w puts b below
    -37, so the product is taken as phi(a) times the Mills ratio
    Phi(b) / phi(b) = 1/(x + 1/(x + 2/(x + ...))), x = -b, whose continued
    fraction is exact to an ulp after ten levels that far out.
    """
    if log_w <= 700.0:
        return math.exp(log_w) * std_normal_cdf(b)
    t = -b
    for k in range(10, 0, -1):
        t = -b + k / t
    return math.exp(-0.5 * a * a) / _SQRT_2PI / t


def bs_vanilla(params: MarketParams, payoff: Payoff, strike: float, s0: float) -> PriceEstimate:
    """Lognormal European price; put obtained from the call by parity."""
    require_price_level("s0", s0)
    require_price_level("strike", strike)
    try:
        payoff = Payoff(payoff)  # tolerate the string forms "call"/"put"
    except ValueError:
        raise DomainError(f"payoff must be 'call' or 'put', got {payoff!r}") from None
    sig_rt = params.sigma * math.sqrt(params.T)
    b = params.mu  # risk-neutral carry: r minus dividend yield
    d1 = (math.log(s0 / strike) + (b + 0.5 * params.sigma**2) * params.T) / sig_rt
    d2 = d1 - sig_rt
    disc_k = strike * math.exp(-params.r * params.T)
    fwd = s0 * math.exp((b - params.r) * params.T)
    call = fwd * std_normal_cdf(d1) - disc_k * std_normal_cdf(d2)
    if payoff is Payoff.CALL:
        value = call
    else:
        value = call - fwd + disc_k
    return PriceEstimate(value=max(value, 0.0), method=PricingMethod.CLOSED)


def down_and_out_call_closed(
    params: MarketParams, strike: float, barrier: float, s0: float
) -> PriceEstimate:
    """Down-and-out call on a flat barrier, zero rebate.

    Computed as the vanilla price minus the image correction, so the
    value converges to the vanilla representation exactly (bit for bit)
    once the correction drops below one ulp of the price.
    """
    require_price_level("s0", s0)
    require_price_level("strike", strike)
    require_price_level("barrier", barrier)
    if s0 <= barrier:
        return PriceEstimate(value=0.0, method=PricingMethod.CLOSED)
    T = params.T
    sig = params.sigma
    sig_rt = sig * math.sqrt(T)
    b = params.mu
    m1 = b - 0.5 * sig * sig
    lam = (b + 0.5 * sig * sig) / (sig * sig)
    disc = math.exp(-params.r * T)
    carry = math.exp((b - params.r) * T)
    log_bs = math.log(barrier / s0)

    if barrier <= strike:
        vanilla = bs_vanilla(params, Payoff.CALL, strike, s0).value
        y = math.log(barrier * barrier / (s0 * strike)) / sig_rt + lam * sig_rt
        pref = math.exp(2.0 * lam * log_bs)  # (B/s0)^(2*lambda)
        correction = pref * s0 * carry * std_normal_cdf(y) - pref * math.exp(
            -2.0 * log_bs
        ) * strike * disc * std_normal_cdf(y - sig_rt)
        value = vanilla - correction
    else:
        # barrier above the strike: the whole surviving slab is in the money
        q1 = (math.log(s0 / barrier) + m1 * T) / sig_rt
        q2 = (log_bs + m1 * T) / sig_rt
        pref = math.exp(2.0 * m1 * log_bs / (sig * sig))  # (B/s0)^(2*mu1/sigma^2)
        value = (
            s0 * carry * std_normal_cdf(q1 + sig_rt)
            - pref * (barrier * barrier / s0) * carry * std_normal_cdf(q2 + sig_rt)
            - strike * disc * (std_normal_cdf(q1) - pref * std_normal_cdf(q2))
        )
    return PriceEstimate(value=max(value, 0.0), method=PricingMethod.CLOSED)


def up_and_out_call_closed(
    params: MarketParams, strike: float, barrier: float, s0: float
) -> PriceEstimate:
    """Up-and-out call on a flat barrier, zero rebate.

    A call that must stay below the barrier is worthless unless the
    strike sits below it; otherwise the price integrates the surviving
    density over the slab between strike and barrier.
    """
    require_price_level("s0", s0)
    require_price_level("strike", strike)
    require_price_level("barrier", barrier)
    if s0 >= barrier:
        return PriceEstimate(value=0.0, method=PricingMethod.CLOSED)
    if barrier <= strike:
        return PriceEstimate(value=0.0, method=PricingMethod.CLOSED)
    T = params.T
    sig = params.sigma
    s = sig * math.sqrt(T)
    b = params.mu
    m1 = b - 0.5 * sig * sig
    disc = math.exp(-params.r * T)
    carry = math.exp((b - params.r) * T)
    h = math.log(barrier / s0)  # > 0
    k = math.log(strike / s0)
    mt = m1 * T
    pref = math.exp(2.0 * m1 * h / (sig * sig))
    pref_asset = pref * math.exp(2.0 * h)  # (B/s0)^(2*lambda)

    a1 = (h - mt) / s - s
    a2 = (k - mt) / s - s
    a3 = (-h - mt) / s - s
    a4 = (k - 2.0 * h - mt) / s - s
    asset = _cdf_diff(a1, a2) - pref_asset * _cdf_diff(a3, a4)
    digital = _cdf_diff(a1 + s, a2 + s) - pref * _cdf_diff(a3 + s, a4 + s)
    value = s0 * carry * asset - strike * disc * digital
    return PriceEstimate(value=max(value, 0.0), method=PricingMethod.CLOSED)


_SERIES_CAP = 50
_SERIES_TOL_REL = 1e-12


def double_knockout_closed(
    params: MarketParams,
    strike: float,
    lower: float,
    upper: float,
    s0: float,
    curvature: tuple[float, float] | None = None,
) -> PriceEstimate:
    """Double knock-out call between barriers L*exp(d_l*t) and U*exp(d_u*t).

    In log space the barriers are straight lines, and a corridor whose
    width changes linearly maps to a constant-width one under the scaling
    time change, so the two-sided survival probability of the terminal
    bridge is an exact image series even when the growth rates differ.
    Every image term is exp(linear in the terminal log-return), so each
    one integrates against the lognormal density in closed form. The sum
    runs over n = 0, +-1, +-2, ... and stops once two consecutive shells
    each contribute less than 1e-12 * s0 (hard cap |n| = 50, never
    reached for sane inputs). A strike below the lower barrier's terminal
    level L_T needs no special case: every surviving path ends above L_T,
    so the payoff slab starts at max(strike, L_T), and the cash leg over
    the whole corridor is the survival mass itself.
    """
    require_price_level("s0", s0)
    require_price_level("strike", strike)
    require_price_level("upper", upper)
    if not (0.0 < lower < upper):
        raise DomainError(f"need 0 < lower < upper, got ({lower}, {upper})")
    if not (lower < s0 < upper):
        return PriceEstimate(value=0.0, method=PricingMethod.CLOSED)
    d_l, d_u = curvature if curvature is not None else (0.0, 0.0)
    T = params.T
    disc = math.exp(-params.r * T)
    upper_T = upper * math.exp(d_u * T)
    lower_T = lower * math.exp(d_l * T)
    if lower_T >= upper_T:
        raise DomainError("barriers cross before expiry")
    if strike >= upper_T:
        return PriceEstimate(value=0.0, method=PricingMethod.CLOSED)
    sig = params.sigma
    s2t = sig * sig * T
    srt = sig * math.sqrt(T)
    m1t = (params.mu - 0.5 * sig * sig) * T
    # corridor geometry in log-return space; a0 is the starting gap above
    # the lower line, D0/DT the corridor widths at the two ends
    lt = math.log(lower / s0) + d_l * T
    a0 = math.log(s0 / lower)
    big_d0 = math.log(upper / lower)
    big_dt = math.log(upper_T / s0) - lt
    x1 = math.log(max(strike, lower_T) / s0)  # no survivor ends below L_T
    x2 = math.log(upper_T / s0)

    def scaled(logpref: float, hi: float, lo: float) -> float:
        diff = _cdf_diff(hi, lo)
        if diff == 0.0:
            return 0.0
        if logpref > 690.0:
            return math.exp(logpref + math.log(diff))
        return math.exp(logpref) * diff

    def leg(gamma: float, logc: float) -> float:
        # integral of exp(logc + gamma*x) against the terminal density
        shift = gamma * s2t
        hi = (x2 - m1t - shift) / srt
        lo = (x1 - m1t - shift) / srt
        return scaled(logc + gamma * m1t + 0.5 * gamma * gamma * s2t, hi, lo)

    asset_sum = 0.0
    cash_sum = 0.0
    prev_small = 0

    def shell(n: int) -> float:
        # survival-series image n: the direct term keeps slope -2n*D0 and
        # the reflected term -2(n*D0 + a0), both per unit sigma^2*T
        nonlocal asset_sum, cash_sum
        beta_a = -2.0 * n * big_d0 / s2t
        beta_b = -2.0 * (n * big_d0 + a0) / s2t
        logc_a = -(2.0 * n / s2t) * (n * big_d0 * big_dt - big_dt * a0 - big_d0 * lt)
        logc_b = -(2.0 / s2t) * (n * big_d0 + a0) * (n * big_dt - lt)
        a = leg(1.0 + beta_a, logc_a) - leg(1.0 + beta_b, logc_b)
        c = leg(beta_a, logc_a) - leg(beta_b, logc_b)
        asset_sum += a
        cash_sum += c
        return abs(a) * s0 + abs(c) * strike

    shell(0)
    for absn in range(1, _SERIES_CAP + 1):
        contrib = shell(absn) + shell(-absn)
        if contrib < _SERIES_TOL_REL * s0:
            prev_small += 1
            if prev_small >= 2:
                break
        else:
            prev_small = 0

    value = disc * (s0 * asset_sum - strike * cash_sum)
    return PriceEstimate(value=max(value, 0.0), method=PricingMethod.CLOSED)


def breach_prob_closed_flat(
    params: MarketParams, side: str, barrier: float, s0: float, T: float
) -> float:
    """P(flat barrier breached before T) for one side, reflection form."""
    if side not in ("lower", "upper"):
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    require_price_level("s0", s0)
    require_price_level("barrier", barrier)
    if not (0.0 <= T < math.inf):
        raise DomainError(f"T must be nonnegative and finite, got {T}")
    if s0 == barrier:
        return 1.0
    if side == "lower" and s0 < barrier:
        raise DomainError(f"s0={s0} below lower barrier {barrier}")
    if side == "upper" and s0 > barrier:
        raise DomainError(f"s0={s0} above upper barrier {barrier}")
    if T == 0.0:
        return 0.0
    sig_rt = params.sigma * math.sqrt(T)
    m1 = params.mu - 0.5 * params.sigma**2
    log_ratio = math.log(barrier / s0) if side == "lower" else math.log(s0 / barrier)
    drift = m1 * T if side == "lower" else -m1 * T
    a, b = (log_ratio - drift) / sig_rt, (log_ratio + drift) / sig_rt
    # reflection weight is (B/s0)^(2*m1/sigma^2) on both sides
    p = std_normal_cdf(a) + _reflected(2.0 * m1 * math.log(barrier / s0) / params.sigma**2, a, b)
    return min(max(p, 0.0), 1.0)
