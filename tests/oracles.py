"""Frozen high-precision oracles for the onset tests, one copy for all.

Every number here was computed offline with mpmath from the closed
forms, with decimal inputs and no float arithmetic, so none of it
depends on the library's rounding or on its bisection logic. The
derivation sits next to each table and can be re-run as written.

All tables describe the down-and-out call with strike K=100, flat lower
barrier B=70 and r=mu=0.10. For B <= K the library prices it as vanilla
minus the image correction

    correction(s) = (B/s)^(2 lam) s Phi(y)
                    - (B/s)^(2 lam - 2) K e^(-rT) Phi(y - sigma sqrt(T)),
    lam = (r + sigma^2/2) / sigma^2,
    y = ln(B^2 / (s K)) / (sigma sqrt(T)) + lam sigma sqrt(T),

so |down-and-out - vanilla| is exactly this correction, and a measured
onset at accuracy theta is the s where it falls to theta/2. Implied nu
inverts the flat lower critical price at its maximum t = T (the turning
point lies past T in every row below):

    nu(s) = (ln(s/B) + (r - sigma^2/2) T) / (sigma sqrt(T)).
"""

# (theta, crossing, nu at the crossing) for sigma=0.30, T=0.25: the root
# of correction(s) = theta/2, bisected at 40 digits.
ORACLE_CROSSINGS = [
    (1e-2, 77.978580549279580342, 0.811259590573),
    (1e-4, 91.857004387847790905, 1.90325217127),
    (1e-6, 105.10482411787030738, 2.80141956697),
]


def crossing(theta):
    """The oracle crossing (s, nu) at accuracy theta."""
    return next((s, nu) for th, s, nu in ORACLE_CROSSINGS if th == theta)


# Onsets quoted by the source for sigma=0.30, T=0.25, as (theta, quoted
# price, quoted implied nu, exact correction at the quoted price). The
# exact correction is correction(mpf("77.182")) and correction(mpf("97"))
# at 50 digits. Both exceed theta/2 (by 1.29x and 17.0x), so neither
# quoted price is an onset under any rounding; the quoted nu are the
# inversions of the quoted prices (exactly 0.74281 and 2.26644).
QUOTED_ONSETS = [
    (1e-2, 77.182, 0.76, 6.44119399883e-3),
    (1e-6, 97.000, 2.267, 8.49975238662e-6),
]

# Onsets at the double-precision floor (theta below one ulp), keyed by
# (T, sigma), as (crossing, nu at the crossing). There "close" means the
# double down-and-out price equals the double vanilla price, which holds
# once the exact correction falls to half an ulp of the double vanilla
# price (round to nearest). The crossings come from a 50-digit bisection
# of that condition:
#
#     import math, mpmath as mp
#     mp.mp.dps = 50
#     R, K, B = mp.mpf("0.10"), mp.mpf(100), mp.mpf(70)
#
#     def vanilla(s, sig, T):
#         srt = sig * mp.sqrt(T)
#         d1 = (mp.log(s / K) + (R + sig**2 / 2) * T) / srt
#         return s * mp.ncdf(d1) - K * mp.exp(-R * T) * mp.ncdf(d1 - srt)
#
#     def correction(s, sig, T):
#         srt = sig * mp.sqrt(T)
#         lam = (R + sig**2 / 2) / sig**2
#         y = mp.log(B * B / (s * K)) / srt + lam * srt
#         pref = (B / s) ** (2 * lam)
#         return (pref * s * mp.ncdf(y)
#                 - pref * (s / B) ** 2 * K * mp.exp(-R * T) * mp.ncdf(y - srt))
#
#     def half_ulp(v):  # half an ulp of the double nearest v
#         return mp.ldexp(1, math.frexp(float(v))[1] - 54)
#
#     def excess(s):  # positive below the crossing, negative above
#         return correction(s, sig, T) - half_ulp(vanilla(s, sig, T))
#
#     lo, hi = mp.mpf(71), mp.mpf(400)  # excess(lo) > 0 > excess(hi)
#     while hi - lo > mp.mpf("1e-40"):
#         mid = (lo + hi) / 2
#         lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
#
# with sig, T = mp.mpf("0.15"), mp.mpf("0.25") for the first row, and so
# on; nu is nu(s) above at 50 digits.
FLOOR_CROSSINGS = {
    (0.25, 0.15): (91.451142294833625571, 3.859961648422503),
    (0.25, 0.30): (158.51273636139171032, 5.540598024213436),
    (0.50, 0.15): (112.58100228166658838, 4.898390215921158),
    (0.50, 0.30): (248.86820323019886422, 6.109064168089676),
}

# The source quotes implied nu 4.347 for the first floor row. Its
# critical price, 70 exp(4.347 sigma sqrt(T) - (r - sigma^2/2) T) =
# 94.8534 for (T, sigma) = (0.25, 0.15), lies beyond that row's crossing:
# the exact correction there is 6.62e-19, about 170x below half an ulp
# (1.11e-16) of the vanilla price, so the two double prices are already
# equal and no measurement at the floor can return it.
QUOTED_FLOOR_NU = 4.347

# Implied nu where the flat critical price peaks at the interior turning
# point t_p = (nu sigma / (2m))^2 < T, one case per side, as (side, r,
# sigma, T, barrier, measured price, nu). Here m = r - sigma^2/2 on the
# lower side and sigma^2/2 - r on the upper, and the price sits
# x = ln(s/B) (lower) or ln(B/s) (upper) from the barrier. nu is the root
# of max_t g = x, where g(t) = nu sigma sqrt(t) - m t, bisected at 40 digits
# from the maximum's own definition rather than from its inverse:
#
#     import mpmath as mp
#     mp.mp.dps = 40
#
#     def log_distance(nu, m, sig, T):  # max of g over [0, T]
#         t = min((nu * sig / (2 * m)) ** 2, T) if m > 0 else T
#         return nu * sig * mp.sqrt(t) - m * t
#
#     def oracle(side, r, sig, T, B, s):
#         m = r - sig**2 / 2
#         x = mp.log(s / B)
#         if side == "upper":
#             m, x = -m, -x
#         lo, hi = mp.mpf(0), mp.mpf(20)
#         while hi - lo > mp.mpf("1e-38"):
#             mid = (lo + hi) / 2
#             lo, hi = (mid, hi) if log_distance(mid, m, sig, T) < x else (lo, mid)
#         return lo
#
# with every input as mp.mpf("...") of the decimals below. The turning
# points are t_p = 2.8317 (T = 5) and 2.7842 (T = 4).
INTERIOR_IMPLIED_NU = [
    ("lower", 0.10, 0.15, 5.0, 70.0, 90.0, 1.9912767767855394249),
    ("upper", 0.02, 0.40, 4.0, 130.0, 110.0, 0.50058078967809910153),
]

# Extremal critical prices of curved barriers at r = mu = 0.10,
# sigma = 0.15 and nu = 2, as (side, barrier, T, critical price, time
# attained). A barrier is ("exp", level, growth) or ("tab", knots). With
# mu1 = r - sigma^2/2 the log critical curves are
#
#     lower: log S(t) = log B(t) + nu sigma sqrt(t) - mu1 t
#     upper: log S(t) = log B(t) - nu sigma sqrt(t) - mu1 t
#
# and log B is linear between knots, so on each segment the lower curve
# is concave and the upper one convex. The extremum therefore lies at a
# knot, at 0 or T, or at a zero of the derivative inside a segment,
# solved at 40 digits:
#
#     import mpmath as mp
#     mp.mp.dps = 40
#     r, sig, nu = mp.mpf("0.10"), mp.mpf("0.15"), mp.mpf(2)
#     m1 = r - sig**2 / 2
#
#     # 70 e^(0.02 t) over [0, 10]: S(0) = 70 and S(10) = 90.89 lie below
#     g = mp.mpf("0.02")
#     log_s = lambda t: mp.log(70) + g * t + nu * sig * mp.sqrt(t) - m1 * t
#     tp = mp.findroot(lambda t: mp.diff(log_s, t), 4)
#     s = mp.exp(log_s(tp))
#
#     # knots (0, 70), (1, 80), (2, 72), lower: the derivative is +0.195
#     # just left of t = 1 and -0.044 just right of it, so the knot wins
#     s = 80 * mp.exp(nu * sig - m1)
#
#     # knots (0, 130), (1, 120), (2, 200), upper: -0.319 left of t = 1
#     # and +0.272 right of it, so the knot is the minimum
#     s = 120 * mp.exp(-nu * sig - m1)
CURVED_CRITICAL = [
    ("lower", ("exp", 70.0, 0.02), 10.0, 97.102582314145674092, 4.7603305785123966942),
    ("lower", ("tab", ((0.0, 70.0), (1.0, 80.0), (2.0, 72.0))), 2.0, 98.817689739550956732, 1.0),
    ("upper", ("tab", ((0.0, 130.0), (1.0, 120.0), (2.0, 200.0))), 2.0, 81.348446971492273974, 1.0),
]

# s_ml of the lower barrier 70 e^(0.05 t) at r = mu = 0.1, sigma = 0.3,
# nu = 3 and T = 1e20, as (s_ml, time attained). For the decimal inputs
# the turning point (nu sigma / (2 (mu1 - g)))^2 is 8100 exactly and
# s_ml = 27165928737053422681.622. At t = 8100, though, the 1e-17 gap
# between each decimal and its double moves s_ml by 5.2e-14 relative, so
# this entry takes the doubles themselves as inputs, mp.mpf(0.1) rather
# than mp.mpf("0.1"), and solves as above at 40 digits:
#
#     r, sig, g, nu = mp.mpf(0.1), mp.mpf(0.3), mp.mpf(0.05), mp.mpf(3)
#     m1 = r - sig**2 / 2
#     log_s = lambda t: mp.log(70) + g * t + nu * sig * mp.sqrt(t) - m1 * t
#     tp = mp.findroot(lambda t: mp.diff(log_s, t), 8000)
#     s = mp.exp(log_s(tp))
FAR_HORIZON_CRITICAL = (27165928737051997610.302, 8099.9999999999796163)

# The paper's criterion against first passage, on the Table-1 rows
# (flat lower barrier B = 70, r = mu = 0.10): started at s_ml, the
# pointwise tail P(S_T <= B) is Phi(-nu) by construction, but the chance
# of touching the barrier at any time before T is larger by the reflection
# term. Keyed by (T, sigma, nu), the ratio P(breach by T) / Phi(-nu) at
# s_ml, at 40 digits. The turning point (nu sigma / (2 mu1))^2 lies past T
# in every row, so s_ml = B exp(nu sigma sqrt(T) - mu1 T):
#
#     import mpmath as mp
#     mp.mp.dps = 40
#     R, B = mp.mpf("0.10"), mp.mpf(70)
#     T, sig, nu = mp.mpf("0.25"), mp.mpf("0.15"), mp.mpf("2.267")  # each row
#     m1, srt = R - sig**2 / 2, sig * mp.sqrt(T)
#     lr = mp.log(B / (B * mp.exp(nu * srt - m1 * T)))
#     p = mp.ncdf((lr - m1 * T) / srt) + mp.exp(2 * m1 * lr / sig**2) * mp.ncdf((lr + m1 * T) / srt)
#     ratio = p / mp.ncdf(-nu)
KNOCKOUT_OVER_TAIL_AT_S_ML = {
    (0.25, 0.15, 2.267): 2.2502040034850025757,
    (0.25, 0.15, 4.9): 2.1259800177209358405,
    (0.25, 0.30, 2.267): 2.0670778853430389276,
    (0.25, 0.30, 4.9): 2.0360153264578307736,
    (0.50, 0.15, 2.267): 2.3895201366455330326,
    (0.50, 0.15, 4.9): 2.187562170408419452,
    (0.50, 0.30, 2.267): 2.0973243136979002787,
    (0.50, 0.30, 4.9): 2.0516786211648937295,
}

# The closed breach form where the reflection weight (B/s0)^(2 mu1/sigma^2)
# passes e^700 because the drift runs hard at the barrier (s0 = 100,
# sigma = 0.05, T = 1, mu = r). Keyed by (side, barrier, r), P(breach by
# T) at 40 digits, on the doubles the command line parses:
#
#     import mpmath as mp
#     mp.mp.dps = 50
#     side, B, r = "lower", 36.8, -1.0  # each row
#     B, s0, sig, r, T = (mp.mpf(v) for v in (B, 100.0, 0.05, r, 1.0))
#     m1, srt = r - sig**2 / 2, sig * mp.sqrt(T)
#     lr = mp.log(B / s0) if side == "lower" else mp.log(s0 / B)
#     d = m1 * T if side == "lower" else -m1 * T
#     p = mp.ncdf((lr - d) / srt) + mp.exp(2 * m1 * mp.log(B / s0) / sig**2) * mp.ncdf((lr + d) / srt)
BREACH_UNDER_STEEP_DRIFT = {
    ("lower", 36.8, -1.0): 0.5225435987768002118711867790331137331422,
    ("upper", 271.8, 1.0): 0.5008259816821548567204020724840905935416,
    ("lower", 50.0, -3.0): 1.0,
}

# Knock-out calls under the same steep drifts (s0 = 100, sigma = 0.05,
# T = 1, mu = r), where the image term's weight (B/s0)^(2 mu1/sigma^2)
# passes e^+-800 and its Phi differences sit near Phi(-40). Keyed by
# (side, strike, barrier, r), the price at 20 digits from 400-digit
# arithmetic with decimal inputs; at 60 digits the down-and-out cancels
# to 0. The upper row is also the double knock-out with a lower barrier
# at 50, which no path reaches first.
#
#     import mpmath as mp
#     mp.mp.dps = 400
#     side, K, B, r = "upper", 150, "271.8", 1  # each row
#     s0, sig, T = mp.mpf(100), mp.mpf("0.05"), mp.mpf(1)
#     K, B, r = mp.mpf(K), mp.mpf(B), mp.mpf(r)
#     s2t, srt, m1t = sig**2 * T, sig * mp.sqrt(T), (r - sig**2 / 2) * T
#     h, k = mp.log(B / s0), mp.log(K / s0)
#     x1, x2 = (max(k, h), mp.inf) if side == "lower" else (k, h)
#
#     def leg(g, c):  # integral of exp(c + g*x) against N(m1t, s2t) over [x1, x2]
#         z = lambda x: (x - m1t - g * s2t) / srt
#         return mp.exp(c + g * m1t + g**2 * s2t / 2) * (mp.ncdf(z(x2)) - mp.ncdf(z(x1)))
#
#     g = 2 * h / s2t  # the image term exp(g * (x - h))
#     asset, cash = leg(1, 0) - leg(1 + g, -g * h), leg(0, 0) - leg(g, -g * h)
#     price = mp.exp(-r * T) * (s0 * asset - K * cash)
KNOCKOUT_UNDER_STEEP_DRIFT = {
    ("upper", 150.0, 271.8, 1.0): 20.37887106485165588,
    ("lower", 90.0, 36.8, -1.0): 2.9142370206453121669e-72,
}

# The up-and-out above with the strike at 271.7, a slab 0.1 wide under the
# barrier whose two ends both sit 40 sd down the image term's tail; the
# price is 1e-4 of each leg. The same derivation with K = "271.7".
NARROW_SLAB_UNDER_STEEP_DRIFT = 4.9296252713474453411e-6

# Double knock-outs in exponential corridors L e^(g_l t), U e^(g_u t)
# that pin the image series' term count (s0 = 100, mu = r). Each price is
# a 60-digit quadrature of the surviving density over the payoff slab: the
# free density times the chance that the Brownian bridge to x stays
# between the two lines, Anderson's alternating series (the engine's
# step_exits over the whole span) on 2 M + 1 images, inputs the doubles
# below:
#
#     import mpmath as mp
#     mp.mp.dps = 60
#     r, sig, T, K, L, U, gl, gu = (mp.mpf(v) for v in row)  # each row
#     s0, M = mp.mpf(100), 200
#     c, m1t = sig**2 * T, (r - sig**2 / 2) * T
#     hl, hu = mp.log(L / s0), mp.log(U / s0)
#     lt, ut = hl + gl * T, hu + gu * T
#     a0, d0, dt = -hl, hu - hl, ut - lt
#
#     def surv(x):  # the bridge's survival, y the gap above the lower line at T
#         y = x - lt
#         return mp.fsum(mp.exp(-2 * n * (dt * (n * d0 - a0) + d0 * y) / c)
#                        - mp.exp(-2 * (n * d0 + a0) * (n * dt + y) / c)
#                        for n in range(-M, M + 1))
#
#     def f(x):
#         dens = mp.exp(-(x - m1t)**2 / (2 * c)) / mp.sqrt(2 * mp.pi * c)
#         return (s0 * mp.exp(x) - K) * dens * surv(x)
#
#     x1 = max(mp.log(K / s0), lt)
#     price = mp.exp(-r * T) * mp.quad(f, mp.linspace(x1, ut, 9))
#
# The first two corridors need one image pair (series_terms is 1); each
# moves by about 2e-10 if the reflected term of shell -2, the upper
# side's second reflection, is left out. Keyed by
# (r, sigma, T, K, L, U, g_l, g_u):
CORRIDOR_TERM_COUNT = {
    (0.2785870400087931, 0.1836386039183736, 1.0477266249507677, 64.97205817714604,
     63.292722034972314, 103.14005878889772, -0.17463970844353058, 0.10039814993616453):
        0.89819323583845244670,
    (0.3302575731294053, 0.611878516706827, 0.17945805710093382, 53.365390003751166,
     48.20850204316089, 111.99311832130128, 0.1930816531688787, 0.025575648692778175):
        8.6230653754725582784,
}

# A corridor that pinches to a log width of 0.002 at T and needs 95 image
# pairs; the same quadrature gives |price| < 1e-40 at M = 150 and at
# M = 200, so the price is 0 to double precision.
PINCHED_CORRIDOR = (-2.239, 0.854, 0.894, 73.17, 84.77, 173.49, 0.492, -0.307)

# Breach probabilities of one exponential barrier B e^(g t) per side
# (s0 = 100, sigma = 0.3, mu = r = 0.1, T = 0.5), keyed by (side, B, g). A
# barrier that is a line in log-price is a flat one under the drift
# mu - g, so each is BREACH_UNDER_STEEP_DRIFT's reflection form with
# m1 = r - g - sigma^2/2, at 40 digits:
#
#     import mpmath as mp
#     mp.mp.dps = 40
#     side, B, g = "lower", 80.0, 0.3  # each row
#     B, g, s0, sig, r, T = (mp.mpf(v) for v in (B, g, 100.0, 0.3, 0.1, 0.5))
#     m1, srt = r - g - sig**2 / 2, sig * mp.sqrt(T)
#     lr = mp.log(B / s0) if side == "lower" else mp.log(s0 / B)
#     d = m1 * T if side == "lower" else -m1 * T
#     p = mp.ncdf((lr - d) / srt) + mp.exp(2 * m1 * mp.log(B / s0) / sig**2) * mp.ncdf((lr + d) / srt)
BREACH_EXPONENTIAL = {
    ("lower", 80.0, 0.3): 0.4915373897291441406016,
    ("upper", 125.0, -0.2): 0.5001676614228225067526,
}

# The breach probabilities of the two CORRIDOR_TERM_COUNT corridors: the
# same 60-digit quadrature with M = 200 and payoff 1 over [L_T, U_T],
#
#     breach = 1 - mp.quad(lambda x: dens(x) * surv(x), mp.linspace(lt, ut, 9))
#
# (M = 20 gives the same 22 digits). Keyed by (r, sigma, T, L, U, g_l, g_u).
CORRIDOR_BREACH = {
    (0.2785870400087931, 0.1836386039183736, 1.0477266249507677,
     63.292722034972314, 103.14005878889772, -0.17463970844353058, 0.10039814993616453):
        0.9619606738662553548457,
    (0.3302575731294053, 0.611878516706827, 0.17945805710093382,
     48.20850204316089, 111.99311832130128, 0.1930816531688787, 0.025575648692778175):
        0.6905355018739277429547,
}

# A far flat corridor, 50 and 200 around s0 = 100 at sigma = 0.05,
# mu = r = 0 and T = 0.25: each barrier sits 27.7 sd away, and one minus
# the survival mass is 0 in double precision. A path that touches both
# barriers travels ln 2 + ln 4, 83 sd (a chance below e^-3000), so
# the breach is the sum of the two one-sided reflection forms (as in
# BREACH_UNDER_STEEP_DRIFT) at 40 digits; the quadrature above at 250
# digits, with extra nodes 1e-5 to 0.1 from each end, agrees to 25 digits.
BREACH_FAR_CORRIDOR = 7.220872703369369419044663e-169

# Double knock-out calls (flat 70/130, mu = r) whose prices sit at or below
# the image series' absolute floor: the shells are O(s0) each and cancel,
# so the double sum keeps only an absolute accuracy of a few ulps of
# s0 e^((mu-r)T) + K e^(-rT). Keyed by (r, sigma, T, K, L, U, s0), the price
# at 20 digits as a decimal string, since the last one is below the least
# double (float() reads it as 0.0). The first row is the sweep command's
# s0 = 73.15 at nu = 4.9. Each comes from the sine (eigenfunction)
# expansion of the killed density, which has no cancellation here:
#
#     import mpmath as mp
#     mp.mp.dps = 50
#     r, sig, T, K, L, U, s0 = (mp.mpf(v) for v in row)  # each row
#     m1 = r - sig**2 / 2
#     hl, hu = mp.log(L / s0), mp.log(U / s0)
#     W, x1, th = hu - hl, max(mp.log(K / s0), hl), m1 / sig**2
#
#     def ie(a, b, x):  # antiderivative of e^(a x) sin(b (x - hl))
#         return mp.exp(a * x) * (a * mp.sin(b * (x - hl)) - b * mp.cos(b * (x - hl))) / (a**2 + b**2)
#
#     tot = 0
#     for n in range(1, 61):
#         b = n * mp.pi / W
#         w = 2 / W * mp.sin(-b * hl) * mp.exp(-b**2 * sig**2 * T / 2)
#         tot += w * (s0 * (ie(th + 1, b, hu) - ie(th + 1, b, x1)) - K * (ie(th, b, hu) - ie(th, b, x1)))
#     price = mp.exp(-r * T - m1**2 * T / (2 * sig**2)) * tot
#
# The image series, each leg in closed form with its Phi difference taken
# on the tail side, gives the same digits: row 1 at 60 digits (81 shells),
# row 2 at 700 (801 shells) and row 3 at 640 (901 shells). At 60 digits
# row 2's image series returns 3.0e-45, its own cancellation noise, so an
# image-series oracle needs more digits than the price's exponent.
DOUBLE_BELOW_FLOOR = {
    (0.10, 0.9, 2.0, 100.0, 70.0, 130.0, 73.15): "5.7524892965550975413e-10",
    (0.05, 5.0, 1.0, 100.0, 70.0, 130.0, 100.0): "2.8730981872315596199e-141",
    (0.05, 10.0, 1.0, 100.0, 70.0, 130.0, 100.0): "8.6679352323233071611e-565",
}
