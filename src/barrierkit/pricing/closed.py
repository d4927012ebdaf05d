"""Closed forms: vanilla, knock-out calls and the breach probability.

Standard library only, so the closed-form commands never load NumPy or
SciPy. European payoffs under lognormal dynamics with continuous barrier
monitoring, paying nothing once knocked out; an s0 on or past a barrier at
inception (model.inception_side) prices to zero, as Monte Carlo does.

The knock-outs are one image (reflection) form: the surviving paths'
terminal density is the free one minus image terms, one for a single
barrier and a doubly-infinite series for two, integrated against the
payoff slab. The breach probability is the mass those terms knock out
of the cash leg over the whole line. Every weighted term goes through
one primitive, `_leg`. `series_terms` decides how many image terms a
corridor takes, here and in the Monte Carlo engine's bridge steps, and
the corridor series sums exactly the terms the engine keeps.

The public entry points validate their inputs and box the result in a
PriceEstimate once; inside, the knock-outs and the calibration share the
unboxed formulas (`_vanilla`, `_knockout_call`) and check nothing again.
"""

from __future__ import annotations

import math
import sys

from ..model import (BarrierSet, DomainError, MarketParams, NumericsError, Payoff,
                     PriceEstimate, _to_payoff, inception_side, require_growth, require_price_level)
from ..numerics import std_normal_cdf

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TINY = sys.float_info.min  # the smallest normal double
_MILLS_FROM = 12.0  # from here on, ten levels of the Mills fraction are exact to an ulp
_CUTOFF = 54.0 * math.log(2.0)  # exp(-_CUTOFF) = 2^-54: past it 1 - p rounds to 1.0
# image pairs past which a corridor is refused: on a 2-core Xeon the engine took
# 45 s per 2e4 paths at 340 pairs per step (365 steps a year), and 3400 over 4 min
_MAX_TERMS = 1000


def series_terms(ww: float, c: float) -> int:
    """Image pairs N a corridor's series needs over a span of variance c =
    sigma^2*dt, ww being the product of its log widths at the span's ends
    (the least over a Monte Carlo path's steps): for gaps inside the
    corridor every term past N is below exp(-2*N*(N+1)*ww/c) <= exp(-_CUTOFF).
    N is the least n >= 1 with n*(n+1) >= _CUTOFF*c/(2*ww), from the root of
    that quadratic."""
    need = _CUTOFF * c / (2.0 * ww)
    if need > _MAX_TERMS * (_MAX_TERMS + 1):
        raise NumericsError(
            f"the corridor is too narrow for its time span: the image series needs about "
            f"{math.sqrt(need):.3g} image pairs, over {_MAX_TERMS}; the pairs shrink as the "
            f"square root of the span, so a Monte Carlo run with more steps per year needs fewer"
        )
    n = max(1, math.floor((math.sqrt(1.0 + 4.0 * need) - 1.0) / 2.0))
    while 2.0 * n * (n + 1) * ww < _CUTOFF * c:  # up from the root's floor
        n += 1
    return n


def _tail(t: float, x: float) -> float:
    """e^w * Phi(-x) for x >= _MILLS_FROM, given t = w - x^2/2 (0 at x = inf, t = -inf).

    That is e^t / sqrt(2*pi) times the Mills ratio Phi(-x)/phi(x) =
    1/(x + 1/(x + 2/(x + ...))), so neither e^w nor Phi(-x) is formed.
    """
    c = x
    for k in range(10, 0, -1):
        c = x + k / c
    return math.exp(t) / (_SQRT_2PI * c)


def _leg(g: float, um: float, t1: float, t2: float, q1: float, q2: float, srt: float) -> float:
    """Integral of e^{u(x)} against the terminal log-return density over a slab.

    u is linear with slope g and equals um at the density's mean; q1, q2
    are the slab ends in the density's standard units (sd srt), and t1, t2
    are u - q^2/2 there, built by the caller in a factored form. The
    integral is e^w * (Phi(hi) - Phi(lo)), w = um + (g*srt)^2/2 and
    (hi, lo) = (q2, q1) - g*srt: the plain product up to e^700 while the
    Phi difference (taken on the tail side) is a normal double, else each
    end through _tail, or exp(w + log(diff)) on a slab across the mode.
    """
    sh = g * srt
    hi, lo = q2 - sh, q1 - sh
    if lo >= 0.0:  # Phi(-lo) - Phi(-hi), else Phi(hi) - Phi(lo): std_normal_cdf inlined
        d = 0.5 * math.erfc(lo / _SQRT2) - 0.5 * math.erfc(hi / _SQRT2)
    else:
        d = 0.5 * math.erfc(-hi / _SQRT2) - 0.5 * math.erfc(-lo / _SQRT2)
    w = um + 0.5 * sh * sh
    if w <= 700.0 and d >= _TINY:
        return math.exp(w) * d
    if hi <= -_MILLS_FROM:
        return _tail(t2, -hi) - _tail(t1, -lo)
    if lo >= _MILLS_FROM:
        return _tail(t1, lo) - _tail(t2, hi)
    return math.exp(w + math.log(d)) if d > 0.0 else 0.0


def _vanilla(params: MarketParams, strike: float, s0: float, put: bool = False) -> float:
    """The Black-Scholes call, or the put by parity, on inputs already checked."""
    sig_rt = params.sigma * math.sqrt(params.T)
    b = params.mu  # risk-neutral carry: r minus dividend yield
    d1 = (math.log(s0 / strike) + (b + 0.5 * params.sigma**2) * params.T) / sig_rt
    d2 = d1 - sig_rt
    disc_k = strike * math.exp(-params.r * params.T)
    fwd = s0 * math.exp((b - params.r) * params.T)
    value = fwd * std_normal_cdf(d1) - disc_k * std_normal_cdf(d2)
    if put:
        value = value - fwd + disc_k
    return max(value, 0.0)


def bs_vanilla(params: MarketParams, payoff: Payoff, strike: float, s0: float) -> PriceEstimate:
    """Lognormal European price; put obtained from the call by parity.

    The call's absolute error is at most 2*2^-52*(s0*e^{(mu-r)*T} + K*e^{-r*T})
    and its relative error at most 1e-12 wherever the price is at least 1e-6
    of that scale (measured at most 1.1 and 8.3e-13 on 65,400 seeded calls
    against 60-digit mpmath: sigma 0.005 to 1, |r| <= 3, strikes 0.3 to 30
    times s0). Below that level the formula subtracts two nearly equal
    tails, and a deep out-of-the-money price keeps the absolute bound alone:
    relative misses reach 1.8e-10 on prices near 1e-300.
    """
    require_price_level("s0", s0)
    require_price_level("strike", strike)
    return PriceEstimate(_vanilla(params, strike, s0, _to_payoff(payoff) is Payoff.PUT))


def _knockout_call(params: MarketParams, strike: float | None, s0: float,
                   lower: tuple[float, float] | None, upper: tuple[float, float] | None) -> float:
    """Call that dies on touching B*exp(g*t) on either side, each a (B, g) pair or None.

    In log-return space a barrier is a line from h0 = ln(B/s0) to
    h_T = h0 + g*T, and the surviving terminal density is the free one
    minus image terms e^{E(x)} times it, E linear in x: one barrier has
    E = 2*h0*(x - h_T)/(sigma^2*T), two the Kunitomo-Ikeda series. Each
    term is an asset and a cash leg over the payoff slab [max(K, L_T), U_T],
    with E at the slab ends in a factored gap-times-gap form, so a steep
    drift's e^{+-800} weights are never built.

    The series sums exactly the terms the engine's `step_exits` keeps for
    one bridge step over the whole span, N = series_terms(d0*dt, sigma^2*T)
    image pairs for the widths d0, dt at 0 and T. Shell n >= 0 holds the
    engine's lower-side R_n and D_n (D_0 is the free density), and shell -m
    the upper-side D_m and, reflected, R_{m-1}; so the engine's set is the
    shells |n| <= N in full and the reflected term of shell -(N + 1), the
    upper R_N: 8N + 6 legs for a price, 4N + 2 for a breach probability,
    which reads the free mass apart. Every term left out has
    e^{E(x)} <= 2^-54 at every x inside the corridor at T, the whole slab,
    and they fall off as e^{-2*n^2*d0*dt/(sigma^2*T)}. The legs integrate
    e^E against measures of mass at most e^{-r*T} (cash) and e^{(mu - r)*T}
    (asset, e^{x - r*T}), so the terms left out move the price by a few
    2^-54*(s0*e^{(mu-r)*T} + K*e^{-r*T}).

    That scale is also the series' absolute floor. Its shells are O(s0)
    each and cancel, so a double knock-out price carries an absolute error
    of a few ulps of s0*e^{(mu-r)*T} + K*e^{-r*T} however small the price:
    70/130 with K = 100, sigma = 0.9, r = 0.10, T = 2 prices 5.75242648e-10
    at s0 = 73.15 against an exact 5.7524892966e-10, and at s0 = K = 100,
    sigma = 10, r = 0.05, T = 1 it returns 3.9e-19 for an exact 8.7e-565.
    A price within a few ulps of that scale of zero is noise, not a value.

    With strike None it returns the breach probability: the mass knocked
    out of the undiscounted cash leg over the whole line, i.e. the free mass
    beyond L_T and U_T plus the image terms over [L_T, U_T], summed as they
    stand rather than as one minus the survival, so a remote breach keeps its digits.
    """
    if inception_side(s0, lower and lower[0], upper and upper[0]) is not None:
        return 0.0
    T, sig = params.T, params.sigma
    s2t, srt = sig * sig * T, sig * math.sqrt(T)
    m1t = (params.mu - 0.5 * sig * sig) * T
    k, rt = (-math.inf, 0.0) if strike is None else (math.log(strike / s0), params.r * T)
    hl = math.log(lower[0] / s0) if lower else -math.inf
    hu = math.log(upper[0] / s0) if upper else math.inf
    lt, ut = (hl + lower[1] * T if lower else hl), (hu + upper[1] * T if upper else hu)
    x1, x2 = (lt if lt > k else k), ut  # no survivor ends below L_T
    if x1 >= x2:
        return 0.0
    if s2t == 0.0:  # every image weight divides by it: _image_form refuses the NaN
        return math.nan
    q1, q2 = (x1 - m1t) / srt, (x2 - m1t) / srt
    # u carries the discount -r*T, so no leg holds e^{mu*T} alone; t = u - q^2/2
    t1, t2 = -rt - 0.5 * q1 * q1, -rt - 0.5 * q2 * q2
    ma = m1t - rt  # the asset legs' u at the mean, before the image
    if lower is None or upper is None:
        h_t = lt if upper is None else ut
        g = 2.0 * (hl if upper is None else hu) / s2t
        em, e1 = g * (m1t - h_t), t1 + g * (x1 - h_t)
        # t at the top end: E(U_T) = 0 under an upper barrier, -inf at x2 = inf
        a2, c2 = (x2 + t2, t2) if upper else (-math.inf, -math.inf)
        cash = _leg(g, em - rt, e1, c2, q1, q2, srt)
        if strike is None:
            return std_normal_cdf(q1) + std_normal_cdf(-q2) + cash
        asset = _leg(1.0 + g, ma + em, x1 + e1, a2, q1, q2, srt)
        if lower is None:
            asset = _leg(1.0, ma, x1 + t1, a2, q1, q2, srt) - asset
            cash = _leg(0.0, -rt, t1, c2, q1, q2, srt) - cash
            return max(s0 * asset - strike * cash, 0.0)
        # the vanilla less the direct mass below L_T and the image above it,
        # so a remote barrier leaves the vanilla bit for bit
        if k < lt:
            qk = (k - m1t) / srt
            tk = -rt - 0.5 * qk * qk
            asset += _leg(1.0, ma, k + tk, x1 + t1, qk, q1, srt)
            cash += _leg(0.0, -rt, tk, t1, qk, q1, srt)
        return max(_vanilla(params, strike, s0) - (s0 * asset - strike * cash), 0.0)
    # image n, with y = x - lt the gap above the lower line (a0 at t = 0) and
    # widths d0, dt at 0 and T: direct E = kk*n*(dt*(n*d0 - a0) + d0*y),
    # reflected E = kk*(n*d0 + a0)*(n*dt + y), kk = -2/(sigma^2*T)
    kk = -2.0 / s2t
    a0, d0, dt = -hl, hu - hl, ut - lt
    y1, ym = x1 - lt, m1t - lt
    asset = cash = gone = 0.0
    terms = series_terms(d0 * dt, s2t)
    last = -1 - terms
    for n in [0] + [s * m for m in range(1, terms + 1) for s in (1, -1)] + [last]:
        gb, nd = kk * (n * d0 + a0), n * dt
        emb = gb * (nd + ym)
        eb1, eb2 = t1 + gb * (nd + y1), t2 + gb * (nd + dt)
        reflected = _leg(gb, emb - rt, eb1, eb2, q1, q2, srt)
        # shell -(N+1) adds its reflected term alone, the engine's upper R_N;
        # with no strike, shell 0's direct term is the free mass, summed apart
        direct = direct_asset = 0.0
        if n != last and (n or strike is not None):
            pa, ca = kk * n, dt * (n * d0 - a0)
            ga, ema = pa * d0, pa * (ca + d0 * ym)
            ea1, ea2 = t1 + pa * (ca + d0 * y1), t2 + pa * (ca + d0 * dt)
            direct = _leg(ga, ema - rt, ea1, ea2, q1, q2, srt)
            if strike is not None:
                direct_asset = _leg(1.0 + ga, ma + ema, x1 + ea1, x2 + ea2, q1, q2, srt)
        if strike is None:
            gone += reflected - direct
            continue
        asset += direct_asset - _leg(1.0 + gb, ma + emb, x1 + eb1, x2 + eb2, q1, q2, srt)
        cash += direct - reflected
    if strike is None:
        return std_normal_cdf(q1) + std_normal_cdf(-q2) + gone
    return max(s0 * asset - strike * cash, 0.0)


def _image_form(params: MarketParams, strike: float | None, s0: float, lower, upper) -> float:
    """_knockout_call, with a NaN (an overflowed image weight 2/(sigma^2*T) times a zero gap) refused."""
    value = _knockout_call(params, strike, s0, lower, upper)
    if value != value:  # NaN
        s2t = params.sigma * params.sigma * params.T
        raise NumericsError(f"the image terms leave double precision at variance sigma^2*T = {s2t:.6g}")
    return value


def _single_knockout_call(params: MarketParams, strike: float, barrier: float, s0: float,
                          growth: float, lower: bool) -> PriceEstimate:
    """The validated body of both single-barrier calls: the line (barrier,
    growth) on the lower side, or on the upper one."""
    require_price_level("s0", s0)
    require_price_level("strike", strike)
    require_price_level("barrier", barrier)
    require_growth(growth)
    line = (barrier, growth)
    return PriceEstimate(_image_form(params, strike, s0, line if lower else None,
                                     None if lower else line))


def down_and_out_call_closed(
    params: MarketParams, strike: float, barrier: float, s0: float, growth: float = 0.0
) -> PriceEstimate:
    """Down-and-out call on the barrier B*exp(growth*t).

    The vanilla price less the mass the barrier removes, so the value is
    the vanilla representation exactly (bit for bit) once that mass drops
    below half an ulp of the price.
    """
    return _single_knockout_call(params, strike, barrier, s0, growth, lower=True)


def up_and_out_call_closed(
    params: MarketParams, strike: float, barrier: float, s0: float, growth: float = 0.0
) -> PriceEstimate:
    """Up-and-out call on the barrier B*exp(growth*t); worthless unless K < B_T."""
    return _single_knockout_call(params, strike, barrier, s0, growth, lower=False)


def double_knockout_closed(
    params: MarketParams,
    strike: float,
    lower: float,
    upper: float,
    s0: float,
    curvature: tuple[float, float] | None = None,
) -> PriceEstimate:
    """Double knock-out call between barriers L*exp(d_l*t) and U*exp(d_u*t).

    A corridor whose log-width changes linearly maps to a constant-width
    one under a time change, so the survival density is an exact image
    series even for unequal growth rates. It takes the a-priori count of
    image terms that the Monte Carlo engine takes (series_terms), and a
    corridor that would need over _MAX_TERMS of them is refused.
    """
    require_price_level("s0", s0)
    require_price_level("strike", strike)
    require_price_level("upper", upper)
    # in log space, as at T: levels whose logs round together are refused
    if not (lower > 0.0 and math.log(upper) - math.log(lower) > 0.0):
        raise DomainError(f"need 0 < lower < upper, got ({lower}, {upper})")
    d_l, d_u = curvature if curvature is not None else (0.0, 0.0)
    require_growth(d_l)
    require_growth(d_u)
    if math.log(lower) + d_l * params.T >= math.log(upper) + d_u * params.T:
        raise DomainError("barriers cross before expiry")
    return PriceEstimate(_image_form(params, strike, s0, (lower, d_l), (upper, d_u)))


def _lines(barriers: BarrierSet) -> tuple[tuple[float, float] | None, tuple[float, float] | None]:
    """Each side's curve B*exp(g*t) as its (B, g) pair, None where absent; the
    closed forms take no tabulated curve."""
    curves = (barriers.lower, barriers.upper)
    if any(c is not None and c.knots for c in curves):
        raise DomainError("the closed form needs flat or exponential barriers")
    return tuple(None if c is None else (c.level, c.growth) for c in curves)


def breach_prob_closed(params: MarketParams, barriers: BarrierSet, s0: float) -> float:
    """P(a flat or exponential barrier, one side or a corridor, is breached
    before T): _image_form with no strike. An s0 on a barrier at t = 0
    has breached it, 1 exactly; past one is a DomainError."""
    require_price_level("s0", s0)
    lower, upper = _lines(barriers)
    if not barriers.any_present:
        raise DomainError("need at least one barrier")
    barriers.check_ordering(params.T)
    if barriers.side_at_inception(s0, params.T, past_ok=False) is not None:
        return 1.0
    return min(max(_image_form(params, None, s0, lower, upper), 0.0), 1.0)
