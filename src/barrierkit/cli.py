"""Command-line front end.

Subcommands: classify, critical, price, breach, calibrate, table1,
sweep. Human-readable text by default, CSV with --csv. Exit codes:
0 success, 2 input validation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import warnings
from dataclasses import dataclass

from .calibrate import (FLOOR_THETA, _SIDE_PRICER, implied_nu, numeric_critical_price,
                        reproduce_table1)
from .classify import classify_double
from .critical import critical_prices
from .model import (
    BarrierCurve,
    BarrierSet,
    CriticalPrices,
    MarketParams,
    McConfig,
    NumericsError,
    OptionSpec,
    Payoff,
    ValidationError,
)
from .numerics import nu_for_accuracy
from .pricing.closed import (
    _lines,
    breach_prob_closed,
    bs_vanilla,
    double_knockout_closed,
    down_and_out_call_closed,
    up_and_out_call_closed,
)

def emit_csv(rows, header) -> str:
    """RFC-4180-style CSV: '.' decimals, 10 significant digits, LF."""
    ncols = len(header)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(map(_fmt, header))
    for row in rows:
        cells = list(row)
        if len(cells) != ncols:
            raise ValidationError(
                f"ragged row: expected {ncols} columns, got {len(cells)}"
            )
        writer.writerow(map(_fmt, cells))
    return out.getvalue()


def _fmt(value) -> str:
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _price_level(text: str) -> float:
    """argparse type of --s0 and --strike: a positive, finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _add_market(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, required=True, help="volatility (annual)")
    p.add_argument("--r", type=float, required=True, help="risk-free rate (annual)")
    p.add_argument("--T", type=float, required=True, help="time to expiry (years)")


def _add_barriers(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lower", type=float, help="lower barrier level at t=0")
    p.add_argument("--upper", type=float, help="upper barrier level at t=0")
    p.add_argument("--lower-growth", type=float, help="exponential growth rate of the lower barrier")
    p.add_argument("--upper-growth", type=float, help="exponential growth rate of the upper barrier")
    p.add_argument("--lower-file", help="two-column t,level CSV for a tabulated lower barrier")
    p.add_argument("--upper-file", help="two-column t,level CSV for a tabulated upper barrier")


def _add_accuracy(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--nu", type=float, help="distance parameter nu")
    group.add_argument("--pi", type=float, help="breach-probability budget; nu from its quantile")


def _add_mc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paths", type=int, default=McConfig.paths, help="Monte Carlo paths")
    p.add_argument("--steps", type=int, default=McConfig.steps_per_year, help="monitoring steps per year")
    p.add_argument("--seed", type=int, default=McConfig.seed, help="random seed (64-bit)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="barrierkit",
        description="Barrier-option degeneracy: critical prices, classification, pricing.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="name the effective option type at s0")
    p.add_argument("--s0", type=_price_level, required=True, help="initial asset price")
    _add_market(p)
    _add_barriers(p)
    _add_accuracy(p)
    _add_common(p)

    p = sub.add_parser("critical", help="critical initial prices for the barrier set")
    _add_market(p)
    _add_barriers(p)
    _add_accuracy(p)
    _add_common(p)

    p = sub.add_parser("price", help="price a knock-out call (closed form or Monte Carlo)")
    p.add_argument("--s0", type=_price_level, required=True)
    p.add_argument("--strike", type=_price_level, required=True)
    p.add_argument("--method", choices=("closed", "mc"), default="closed")
    _add_market(p)
    _add_barriers(p)
    _add_mc(p)
    _add_common(p)

    p = sub.add_parser("breach", help="probability of hitting a barrier before expiry")
    p.add_argument("--s0", type=_price_level, required=True)
    p.add_argument("--method", choices=("closed", "mc", "pde"), default="closed")
    _add_market(p)
    _add_barriers(p)
    _add_mc(p)
    _add_common(p)

    p = sub.add_parser("calibrate", help="measured critical price and its implied nu")
    p.add_argument("--strike", type=_price_level, default=100.0)
    p.add_argument("--lower", type=float, help="flat lower barrier level")
    p.add_argument("--upper", type=float, help="flat upper barrier level")
    p.add_argument("--theta", type=float, required=True, help="accuracy threshold (power of ten)")
    _add_market(p)
    _add_common(p)

    p = sub.add_parser("table1", help="four-row calibration table (K=100, B=70, r=0.10)")
    p.add_argument("--theta", type=float, default=FLOOR_THETA, help="accuracy threshold (power of ten)")
    p.add_argument("--nu", type=float, default=4.9, help="reference nu for the analytic column")
    _add_common(p)

    p = sub.add_parser("sweep", help="price/classification sweep over s0")
    p.add_argument("--strike", type=_price_level, required=True)
    _add_market(p)
    _add_barriers(p)
    _add_accuracy(p)
    _add_common(p)

    return ap


def _load_knots(path: str) -> tuple[tuple[float, float], ...]:
    knots = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 't,level'")
        try:
            knots.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: expected two numbers 't,level'") from None
    return tuple(knots)


def _curve_from_args(args, side: str) -> BarrierCurve | None:
    level = getattr(args, side)
    growth = getattr(args, f"{side}_growth")
    file_ = getattr(args, f"{side}_file")
    if file_ is not None:
        if level is not None or growth is not None:
            raise ValidationError(f"--{side}-file excludes --{side}/--{side}-growth")
        return BarrierCurve.tabulated(_load_knots(file_))
    if level is None:
        if growth is not None:
            raise ValidationError(f"--{side}-growth needs --{side}")
        return None
    return BarrierCurve.exponential(level, growth or 0.0)


def _barriers_from_args(args, T: float) -> BarrierSet:
    barriers = BarrierSet(
        lower=_curve_from_args(args, "lower"), upper=_curve_from_args(args, "upper")
    )
    barriers.check_ordering(T)
    return barriers


def _params_from_args(args) -> MarketParams:
    return MarketParams(mu=args.r, sigma=args.sigma, r=args.r, T=args.T)


def _mc_from_args(args) -> McConfig:
    return McConfig(paths=args.paths, steps_per_year=args.steps, seed=args.seed)


def _nu_from_args(args) -> float:
    return args.nu if args.nu is not None else nu_for_accuracy(args.pi)


def _closed_price(params: MarketParams, strike: float, barriers: BarrierSet, s0: float):
    lower, upper = _lines(barriers)  # (level, growth) pairs
    if lower and upper:
        return double_knockout_closed(params, strike, lower[0], upper[0], s0, (lower[1], upper[1]))
    if lower:
        return down_and_out_call_closed(params, strike, lower[0], s0, lower[1])
    if upper:
        return up_and_out_call_closed(params, strike, upper[0], s0, upper[1])
    return bs_vanilla(params, Payoff.CALL, strike, s0)


@dataclass(frozen=True)
class _Report:
    """What a command prints: CSV header and rows, or its text lines.

    A note follows the text on stdout, or the CSV on stderr.
    """

    header: tuple[str, ...]
    rows: list[tuple]
    lines: list[str]
    note: str = ""


def _require_finite(rows) -> None:
    """Refuse to print a NaN or infinite number as a result."""
    for row in rows:
        for cell in row:
            if isinstance(cell, float) and not math.isfinite(cell):
                raise NumericsError(
                    f"result {cell} is not finite: the inputs leave double precision"
                )


def _initial_levels(barriers: BarrierSet, T: float) -> tuple[float | None, float | None]:
    """Lower and upper barrier levels at t = 0; None for an absent side."""
    return tuple(
        None if curve is None else curve.value_at(0.0, T)
        for curve in (barriers.lower, barriers.upper)
    )


def _critical_setup(args) -> tuple[MarketParams, BarrierSet, CriticalPrices]:
    """Market, barriers and critical prices: the opening of classify, critical and sweep."""
    params = _params_from_args(args)
    barriers = _barriers_from_args(args, params.T)
    if not barriers.any_present:
        raise ValidationError(f"{args.command} needs at least one barrier")
    return params, barriers, critical_prices(params, barriers, _nu_from_args(args))


def _cmd_classify(args) -> _Report:
    params, barriers, crit = _critical_setup(args)
    label = classify_double(args.s0, *_initial_levels(barriers, params.T), crit.s_ml, crit.s_mu)
    return _Report(("classification",), [(label.value,)], [label.value])


def _cmd_critical(args) -> _Report:
    crit = _critical_setup(args)[2]
    rows = []
    if crit.s_ml is not None:
        rows.append(("s_ml", crit.s_ml, crit.t_at_max))
    if crit.s_mu is not None:
        rows.append(("s_mu", crit.s_mu, crit.t_at_min))
    lines = [
        f"{name} = {_fmt(value)}  (attained at t = {_fmt(t_at)})" for name, value, t_at in rows
    ]
    return _Report(("quantity", "value", "t_at_extremum"), rows, lines)


def _cmd_price(args) -> _Report:
    params = _params_from_args(args)
    barriers = _barriers_from_args(args, params.T)
    if args.method == "closed":
        est = _closed_price(params, args.strike, barriers, args.s0)
    else:
        cfg = _mc_from_args(args)
        from .pricing.mc import mc_price

        spec = OptionSpec(payoff=Payoff.CALL, strike=args.strike, barriers=barriers)
        est = mc_price(params, spec, args.s0, cfg)
    tail = f" +- {_fmt(est.std_error)} (1 se)" if est.std_error else ""
    return _Report(
        ("value", "std_error", "method"),
        [(est.value, est.std_error, est.method.value)],
        [f"price = {_fmt(est.value)}{tail}  [{est.method.value}]"],
    )


def _cmd_breach(args) -> _Report:
    params = _params_from_args(args)
    barriers = _barriers_from_args(args, params.T)
    if not barriers.any_present:
        raise ValidationError("breach needs at least one barrier")
    rows = []
    if args.method == "closed":
        p = breach_prob_closed(params, barriers, args.s0)
        if not (barriers.lower and barriers.upper):
            rows.append(("p_lower" if barriers.lower else "p_upper", p, 0.0))
        rows.append(("p_total", p, 0.0))
    elif args.method == "mc":
        cfg = _mc_from_args(args)
        from .passage import breach_prob_mc

        est = breach_prob_mc(params, barriers, args.s0, cfg)
        rows.append(("p_lower", est.p_lower, est.se_lower))
        rows.append(("p_upper", est.p_upper, est.se_upper))
        rows.append(("p_total", est.p_total, est.se_total))
    else:
        from .passage import breach_prob_pde, default_grid

        grid = default_grid(params, barriers, args.s0, params.T)
        p = breach_prob_pde(params, barriers, args.s0, params.T, grid)
        rows.append(("p_total", p, 0.0))
    lines = [
        f"{name} = {_fmt(value)}" + (f" +- {_fmt(se)} (1 se)" if se else "")
        for name, value, se in rows
    ]
    return _Report(("quantity", "value", "std_error"), rows, lines)


def _cmd_calibrate(args) -> _Report:
    params = _params_from_args(args)
    if (args.lower is None) == (args.upper is None):
        raise ValidationError("calibrate needs exactly one of --lower/--upper")
    side = "lower" if args.lower is not None else "upper"
    level = getattr(args, side)
    # the default pricer, passed because benchmark/tracer.py reads it as the sixth argument
    s_crit = numeric_critical_price(params, args.strike, level, side, args.theta,
                                    _SIDE_PRICER[side])
    nu = implied_nu(params, level, side, s_crit)
    return _Report(
        ("theta", "numeric_critical", "implied_nu"),
        [(args.theta, s_crit, nu)],
        [f"numeric critical price = {_fmt(s_crit)}", f"implied nu = {_fmt(nu)}"],
    )


_PRECISION_NOTE = (
    "note: price differences quantize at double-precision rounding "
    "(about 1e-16 of the price); accuracy targets below that floor "
    "saturate numeric_sml and implied_nu."
)


def _cmd_table1(args) -> _Report:
    rows = reproduce_table1(reference_nu=args.nu, theta=args.theta)
    data = [row.as_tuple() for row in rows]
    lines = ["T      sigma  analytic_sml  numeric_sml  implied_nu"] + [
        f"{T:<6.2f} {sigma:<6.2f} {analytic:<13.6g} {numeric:<12.6g} {nu:.4g}"
        for T, sigma, analytic, numeric, nu in data
    ]
    return _Report(
        ("T", "sigma", "analytic_sml", "numeric_sml", "implied_nu"), data, lines, _PRECISION_NOTE
    )


def _cmd_sweep(args) -> _Report:
    params, barriers, crit = _critical_setup(args)
    span = math.exp(10.0 * params.sigma * math.sqrt(params.T))
    bl0, bu0 = _initial_levels(barriers, params.T)
    lo = bl0 * 1.02 if bl0 is not None else bu0 / span
    hi = bu0 * 0.98 if bu0 is not None else bl0 * span
    n_points = 33
    rows = []
    for i in range(n_points):
        s0 = lo + (hi - lo) * i / (n_points - 1)
        label = classify_double(s0, bl0, bu0, crit.s_ml, crit.s_mu)
        barrier_price = _closed_price(params, args.strike, barriers, s0).value
        vanilla = bs_vanilla(params, Payoff.CALL, args.strike, s0).value
        rows.append((s0, label.value, barrier_price, vanilla, abs(barrier_price - vanilla)))
    lines = ["s0          classification        barrier_price  vanilla_price  abs_diff"] + [
        f"{s0:<11.6g} {label:<21} {bp:<14.8g} {vp:<14.8g} {diff:.4g}"
        for s0, label, bp, vp, diff in rows
    ]
    return _Report(
        ("s0", "classification", "barrier_price", "vanilla_price", "abs_diff"), rows, lines
    )


_HANDLERS = {
    "classify": _cmd_classify,
    "critical": _cmd_critical,
    "price": _cmd_price,
    "breach": _cmd_breach,
    "calibrate": _cmd_calibrate,
    "table1": _cmd_table1,
    "sweep": _cmd_sweep,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning in the CLI's own one-line form, on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def run(argv) -> int:
    """Dispatch one command; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            report = _HANDLERS[args.command](args)
        _require_finite(report.rows)
        if args.csv:
            sys.stdout.write(emit_csv(report.rows, report.header))
            if report.note:
                print(report.note, file=sys.stderr)
        else:
            for line in report.lines:
                print(line)
            if report.note:
                print(report.note)
        return 0
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as exc:
        # admissible inputs whose formulas leave double precision: an
        # overflow, a division by an underflowed zero, a log of one
        print(f"numerical failure: the inputs leave double precision ({exc})", file=sys.stderr)
        return 3
    except SystemExit as exc:
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]))
