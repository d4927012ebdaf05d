"""Decide which simpler instrument a knock-out option degenerates into.

Given the initial price, the barrier values at inception, and the
critical prices from the critical module, one rule picks exactly one
category. A single barrier is the double rule with the other side absent
(its level None, its critical price not read). The rule depends only on
those price levels, never on the strike or payoff kind.
Boundary conventions: sitting exactly at a critical price counts as
degenerate (the closed comparisons go to Vanilla), and starting on a
barrier, as model.inception_side decides it for every pricer, knocks out.
"""

from __future__ import annotations

from .model import Classification, inception_side, require_price_level


def classify_double(
    s0: float, b_l0: float | None, b_u0: float | None, s_ml: float | None, s_mu: float | None
) -> Classification:
    """Category of a knock-out started at s0; b_l0 or b_u0 None for an absent side.

    Below both critical prices only the lower barrier matters; above both
    only the upper one does. When the critical prices cross (s_ml <= s_mu)
    there is a band where neither barrier matters and the option is
    effectively vanilla; in the opposite ordering the band (s_mu, s_ml)
    keeps both barriers live, a typical double knock-out. Ties go to the
    degenerate reading: the vanilla comparison is closed, the double-live
    band is open. An s0 that is not positive and finite is a DomainError.
    """
    require_price_level("s0", s0)
    if inception_side(s0, b_l0, b_u0) is not None:
        return Classification.KNOCKED_OUT_AT_INCEPTION
    lower_live = b_l0 is not None and s0 < s_ml  # below s_ml the lower barrier still matters
    upper_live = b_u0 is not None and s0 > s_mu  # above s_mu the upper barrier still matters
    if lower_live and upper_live:
        return Classification.TYPICAL_DOUBLE_BARRIER
    if lower_live:
        return Classification.DOWN_AND_OUT
    if upper_live:
        return Classification.UP_AND_OUT
    return Classification.VANILLA


def classify_down_and_out(s0: float, b_l0: float, s_ml: float) -> Classification:
    """Category of a down-and-out option started at s0: knocked out at or
    below the barrier, vanilla at or above s_ml, a typical down-and-out between."""
    return classify_double(s0, b_l0, None, s_ml, None)


def classify_up_and_out(s0: float, b_u0: float, s_mu: float) -> Classification:
    """Category of an up-and-out option started at s0 (mirror rules)."""
    return classify_double(s0, None, b_u0, None, s_mu)
