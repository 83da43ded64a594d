"""Command-line front end: rate computations, Monte Carlo verification,
scaling sweeps, and the optimal-density search, with CSV output suitable for
external plotting plus a JSON metadata sidecar per run.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .gmrf_mc import mc_kli_estimate
from .inforates import _sfcar_rates, kli_rate_sfcar, optimal_zeta, sfcar_info_rates
from .network import (
    NetworkConfig,
    optimal_density,
    sweep_energy_fixed_all,
    sweep_fixed_density,
    sweep_infinite_density,
    sweep_spacing,
)
from .spectra import sfcar_for_snr
from ._util import check_at_least, check_finite, check_positive

__all__ = ["main", "emit_plotdata", "DEFAULT_SEED"]

# Fixed default seed so that every run is reproducible unless overridden.
DEFAULT_SEED = 1729
_MAX_ZETA_SOLVES = 10**6  # most SNR points (one optimal_zeta solve each) an optimal-zeta run may ask for


def emit_plotdata(rows: Sequence[dict], schema: Sequence[str], path: str) -> None:
    """Write rows as CSV: header from schema, floats at 12 significant digits.

    Any non-finite value aborts with a diagnostic naming the offending row
    and column; nothing is written in that case.
    """
    if not rows:
        raise ValueError("refusing to write an empty data series")
    rendered = []
    for idx, row in enumerate(rows):
        out = []
        for col in schema:
            value = row[col]
            if isinstance(value, float):
                if not math.isfinite(value):
                    raise ValueError(f"non-finite value in row {idx} column {col!r}")
                out.append(f"{value:.12g}")
            else:
                out.append(str(value))
        rendered.append(out)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(schema)
        writer.writerows(rendered)


def _write_metadata(path: str, command: str, config: dict, extras: dict) -> None:
    meta = {
        "command": command,
        "config": config,
        "version": __version__,
        **extras,
    }
    # strict JSON: a round trip turns every NaN or infinity, at any depth, into null
    meta = json.loads(json.dumps(meta, default=str), parse_constant=lambda _: None)
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _snr_from_db(db: float, flag: str) -> float:
    """The linear SNR 10^(db/10); ``flag`` names the option blamed when it overflows."""
    check_finite(**{flag: db})
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{flag} is too large: its linear SNR overflows a float") from None


def _snr_linear(args) -> float:
    if args.snr_linear is not None:
        return args.snr_linear
    if args.snr_db is None:
        raise ValueError("one of --snr-db or --snr-linear is required")
    return _snr_from_db(args.snr_db, "--snr-db")


def _mu_grid(args) -> np.ndarray:
    """--points densities log-spaced from --mu-min to --mu-max."""
    check_positive(**{"--mu-min": args.mu_min, "--mu-max": args.mu_max})
    return np.logspace(math.log10(args.mu_min), math.log10(args.mu_max), args.points)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", type=str, default=None, help="CSV output path")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of defaults; explicit flags win")


def _add_snr(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snr-db", type=float, default=None, help="measurement SNR in dB")
    parser.add_argument("--snr-linear", type=float, default=None, help="measurement SNR, linear ratio")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors reach main as ValueError, so as one error line
        raise ValueError(message)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="gmrfinfo",
        description="Information rates of hidden lattice Gauss-Markov fields "
                    "and sensor-network scaling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="per-node KLI/MI rates at one (SNR, zeta)")
    _add_snr(p)
    p.add_argument("--zeta", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("sweep-zeta", help="rates over a zeta range at fixed SNR")
    _add_snr(p)
    p.add_argument("--zeta-min", type=float, default=0.0)
    p.add_argument("--zeta-max", type=float, default=0.25)
    p.add_argument("--points", type=int, default=101)
    _add_common(p)

    p = sub.add_parser("sweep-snr", help="rates over an SNR range at fixed zeta")
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--snr-db-min", type=float, default=-10.0)
    p.add_argument("--snr-db-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=41)
    _add_common(p)

    p = sub.add_parser("optimal-zeta", help="information-maximizing zeta over an SNR range")
    p.add_argument("--snr-db-min", type=float, default=-10.0)
    p.add_argument("--snr-db-max", type=float, default=10.0)
    p.add_argument("--step-db", type=float, default=0.5)
    _add_common(p)

    p = sub.add_parser("mc-verify", help="Monte Carlo check of the per-node KLI limit")
    _add_snr(p)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--n", type=int, default=64, help="lattice side")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")
    _add_common(p)

    p = sub.add_parser("scaling", help="fixed-density coverage sweep (area/energy laws)")
    p.add_argument("--n-list", type=int, nargs="+", default=[33, 65, 129, 257])
    p.add_argument("--dn", type=float, default=1.0)
    p.add_argument("--es", type=float, default=1.0)
    p.add_argument("--e0", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=10.0)
    p.add_argument("--measure", choices=["kli", "mi"], default="kli")
    p.add_argument("--fusion", action="store_true", help="in-network aggregation energy model")
    _add_common(p)

    p = sub.add_parser("spacing", help="per-node rate vs sensor spacing at fixed SNR")
    _add_snr(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--dn-min", type=float, default=0.5)
    p.add_argument("--dn-max", type=float, default=8.0)
    p.add_argument("--points", type=int, default=16)
    p.add_argument("--measure", choices=["kli", "mi"], default="kli")
    _add_common(p)

    p = sub.add_parser("density", help="per-node rate vs node density on a fixed area")
    _add_snr(p)
    p.add_argument("--L", type=float, default=4.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--mu-min", type=float, default=0.1)
    p.add_argument("--mu-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--measure", choices=["kli", "mi"], default="kli")
    _add_common(p)

    p = sub.add_parser("energy", help="total information vs total energy at fixed n, dn")
    p.add_argument("--n", type=int, default=21)
    p.add_argument("--dn", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=100.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--e0", type=float, default=0.1)
    p.add_argument("--nu", type=float, default=2.0)
    p.add_argument("--et-list", type=float, nargs="+", default=[1e4, 1e5, 1e6, 1e7, 1e8])
    p.add_argument("--measure", choices=["kli", "mi"], default="kli")
    _add_common(p)

    p = sub.add_parser("optimal-density", help="density maximizing total information under a budget")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--Et", type=float, required=True, dest="et")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--E0", type=float, required=True, dest="e0")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--mu-min", type=float, default=1.0)
    p.add_argument("--mu-max", type=float, default=1e4)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--measure", choices=["kli", "mi"], default="kli")
    _add_common(p)

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a ``--config`` JSON object stands for the flags it names, and typed flags win."""
    parser, commands = build_parser()
    pre = _Parser(add_help=False)
    for flag in ("--config", "--snr-db", "--snr-linear"):
        pre.add_argument(flag, nargs="?")  # a missing value is left to the full parse
    known = pre.parse_known_args(argv)[0]
    command = commands.get(argv[0]) if argv else None
    actions = {a.dest: a for a in command._actions if a.dest != "help"} if command else {}
    typed_snr = [v for v in (known.snr_db, known.snr_linear) if v is not None]
    if len(typed_snr) > 1 and "snr_db" in actions:
        raise ValueError("give one of --snr-db and --snr-linear, not both")
    flags = []
    if known.config is not None and command is not None:
        with open(known.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError(f"config file {known.config} must hold a JSON object")
        unknown = sorted(set(values) - set(actions))
        if unknown:
            raise ValueError(f"unknown config key(s) for {argv[0]}: {', '.join(unknown)}")
        values = {key: value for key, value in values.items() if value is not None}  # null: not given
        if "config" in values:
            raise ValueError(f"config file {known.config} sets config; config files do not nest")
        if "snr_db" in values and "snr_linear" in values:
            raise ValueError(f"config file {known.config} sets both snr_db and snr_linear; give one")
        for key, value in values.items():
            action, flag = actions[key], actions[key].option_strings[0]
            if typed_snr and key in ("snr_db", "snr_linear"):
                continue  # a typed SNR flag replaces the file's SNR of either kind
            if action.nargs == 0 and isinstance(value, bool):  # a switch: true is the flag
                flags += [flag] * value
            elif action.nargs and isinstance(value, list) and not any(isinstance(v, str) for v in value):
                flags += [flag, *map(str, value)]  # numbers only: a string item could read as a flag
            else:  # the = form lets negative values parse
                flags.append(f"{flag}={value}")
    return parser.parse_args(argv[:1] + flags + argv[1:])  # argparse keeps a flag's last value


def _run_rates(args):
    result = sfcar_info_rates(_snr_linear(args), args.zeta)
    print(f"kli={result.kli:.12g} mi={result.mi:.12g} "
          f"quad_error={result.quad_error_estimate:.3g}")
    rows = [{"snr": _snr_linear(args), "zeta": args.zeta, "kli": result.kli,
             "mi": result.mi, "quad_error": result.quad_error_estimate}]
    return rows, {}


def _run_sweep_zeta(args):
    snr = _snr_linear(args)
    zetas = np.linspace(args.zeta_min, args.zeta_max, args.points)
    pairs = [_sfcar_rates(snr, z) for z in zetas.tolist()]
    rows = [{"zeta": float(z), "kli": k, "mi": m} for z, (k, m) in zip(zetas, pairs)]
    print(f"swept {len(rows)} zeta points at snr={snr:.6g}")
    return rows, {}


def _run_sweep_snr(args):
    check_finite(**{"--snr-db-min": args.snr_db_min, "--snr-db-max": args.snr_db_max})
    dbs = [float(db) for db in np.linspace(args.snr_db_min, args.snr_db_max, args.points)]
    # 10^(db/10) rises with db, so only the larger end's flag can be too large
    top = "--snr-db-max" if args.snr_db_max >= args.snr_db_min else "--snr-db-min"
    snrs = [_snr_from_db(db, top) for db in dbs]
    pairs = [_sfcar_rates(snr, args.zeta) for snr in snrs]
    rows = [{"snr_db": db, "snr": snr, "kli": k, "mi": m}
            for db, snr, (k, m) in zip(dbs, snrs, pairs)]
    print(f"swept {len(rows)} SNR points at zeta={args.zeta}")
    return rows, {}


def _run_optimal_zeta(args):
    check_finite(**{"--snr-db-min": args.snr_db_min, "--snr-db-max": args.snr_db_max})
    check_positive(**{"--step-db": args.step_db})
    if args.snr_db_max < args.snr_db_min:
        raise ValueError(f"--snr-db-max ({args.snr_db_max!r}) is below --snr-db-min ({args.snr_db_min!r})")
    span = (args.snr_db_max - args.snr_db_min) / args.step_db + 1e-9  # absorbs division rounding
    if span >= _MAX_ZETA_SOLVES:
        raise ValueError(f"--step-db is too small: the range needs more than {_MAX_ZETA_SOLVES} solves")
    dbs = [min(args.snr_db_min + i * args.step_db, args.snr_db_max) for i in range(int(span) + 1)]
    snrs = [_snr_from_db(db, "--snr-db-max") for db in dbs]
    results = [optimal_zeta(snr) for snr in snrs]
    rows = [{"snr_db": db, "zeta_star": z, "kli_star": v}
            for db, (z, v) in zip(dbs, results)]
    print(f"optimal zeta over {len(rows)} SNR points")
    return rows, {}


def _run_mc_verify(args):
    snr = _snr_linear(args)
    model = sfcar_for_snr(snr, args.zeta, args.sigma2)
    report = mc_kli_estimate(model, args.sigma2, args.n, args.trials, args.seed)
    target = kli_rate_sfcar(snr, args.zeta)
    print(f"mc mean={report.mean:.8g} se={report.std_error:.3g} "
          f"quadrature target={target:.8g} n={args.n} trials={args.trials}")
    rows = [{"n": args.n, "trials": args.trials, "seed": args.seed, "mean": report.mean,
             "std_error": report.std_error, "target": target}]
    return rows, {}


def _run_scaling(args):
    cfg = NetworkConfig(n=args.n_list[0], dn=args.dn, es=args.es, e0=args.e0, nu=args.nu,
                        alpha=args.alpha, beta=args.beta, fusion=args.fusion)
    sweep = sweep_fixed_density(cfg, args.n_list, args.measure)
    rows = [{"n": r.n, "area": r.n**2 * r.dn**2, "snr": r.snr, "zeta": r.zeta,
             "per_node_info": r.per_node_info, "total_info": r.total_info,
             "total_energy": r.total_energy, "efficiency": r.efficiency}
            for r in sweep.reports]
    extras = {
        "eta_vs_area_slope": sweep.eta_vs_area.slope,
        "eta_vs_area_r2": sweep.eta_vs_area.r2,
        "info_vs_energy_slope": sweep.info_vs_energy.slope,
        "info_vs_energy_r2": sweep.info_vs_energy.r2,
    }
    print(f"eta-vs-area slope {sweep.eta_vs_area.slope:.4f}, "
          f"info-vs-energy slope {sweep.info_vs_energy.slope:.4f}")
    return rows, extras


def _run_spacing(args):
    snr = _snr_linear(args)
    check_at_least(0, snr=snr)  # before the config, which would blame its es field
    cfg = NetworkConfig(n=2, dn=1.0, es=snr, e0=1.0, nu=2.0, alpha=args.alpha, beta=1.0)
    dns = list(np.linspace(args.dn_min, args.dn_max, args.points))
    sweep = sweep_spacing(cfg, dns, args.measure)
    rows = [{"dn": d, "rate": r, "gap": sweep.limit - r}
            for d, r in zip(sweep.dn_list, sweep.rates)]
    extras = {"limit": sweep.limit, "gap_fit_slope": sweep.gap_fit.slope,
              "alpha_estimate": sweep.alpha_estimate}
    print(f"decorrelated limit {sweep.limit:.6g}, gap-fit slope {sweep.gap_fit.slope:.4f}")
    return rows, extras


def _run_density(args):
    snr = _snr_linear(args)
    sweep = sweep_infinite_density(args.L, _mu_grid(args), args.measure, snr, args.alpha)
    rows = [{"mu": m, "rate": r, "per_area_info": p}
            for m, r, p in zip(sweep.mu_list, sweep.rates, sweep.per_area_info)]
    extras = {"plateau_variation": sweep.plateau_variation}
    print(f"top-decade variation of mu*rate: {sweep.plateau_variation:.4f}")
    return rows, extras


def _run_energy(args):
    cfg = NetworkConfig(n=args.n, dn=args.dn, es=1.0, e0=args.e0, nu=args.nu,
                        alpha=args.alpha, beta=args.beta)
    sweep = sweep_energy_fixed_all(cfg, args.et_list, args.measure)
    rows = [{"et": e, "total_info": i} for e, i in zip(sweep.et_list, sweep.total_info)]
    extras = {"increments": list(sweep.increments)}
    print("total-info increments per budget step:",
          " ".join(f"{v:.4g}" for v in sweep.increments))
    return rows, extras


def _run_optimal_density(args):
    result = optimal_density(args.L, args.et, args.alpha, args.beta, args.e0,
                             args.nu, args.measure, _mu_grid(args))
    rows = [{"mu": m, "total_info": v}
            for m, v in zip(result.mu_list, result.total_info)]
    extras = {
        "mu_star": result.mu_star,
        "info_star": result.info_star,
        "local_maxima": [{"mu": m, "total_info": v} for m, v in result.local_maxima],
    }
    print(f"optimal density mu*={result.mu_star:.6g} nodes/m^2, "
          f"total information {result.info_star:.6g} nats "
          f"({len(result.local_maxima)} local maxima on the grid)")
    return rows, extras


_RUNNERS = {
    "rates": _run_rates,
    "sweep-zeta": _run_sweep_zeta,
    "sweep-snr": _run_sweep_snr,
    "optimal-zeta": _run_optimal_zeta,
    "mc-verify": _run_mc_verify,
    "scaling": _run_scaling,
    "spacing": _run_spacing,
    "density": _run_density,
    "energy": _run_energy,
    "optimal-density": _run_optimal_density,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        if "points" in vars(args):
            check_positive(**{"--points": args.points})
        rows, extras = _RUNNERS[args.command](args)
        if args.output:
            emit_plotdata(rows, list(rows[0]), args.output)
            config = {k: v for k, v in vars(args).items() if k not in ("command",)}
            _write_metadata(args.output, args.command, config, extras)
            print(f"wrote {args.output} ({len(rows)} rows) and {args.output}.meta.json")
        return 0
    except (ValueError, OSError, MemoryError) as exc:  # the package's errors subclass ValueError
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a bare MemoryError is blank
        return 2


if __name__ == "__main__":
    sys.exit(main())
