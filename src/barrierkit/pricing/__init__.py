"""Pricing, one module per route; this package imports nothing.

The closed forms live in `pricing.closed` and the conditional Monte
Carlo pricer `mc_price` in `pricing.mc`, on the path engine
`path_moments` in `pricing.engine`; the run it takes, `McConfig`, lives
in `model`.
"""
