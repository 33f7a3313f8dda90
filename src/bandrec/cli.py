"""Command-line driver tying the pipeline together.

Subcommands: ed (diagonalize a spin chain), forward (synthesize quasi-free
energies), reconstruct (invert an energy series into bands), criterion
(quasi-free feasibility check), convergence (reconstruction-error curve),
kernel (tabulate the number-theoretic values).  Exit codes: 0 success,
2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import __version__
from .bands import MassiveSineBand
from .core import (
    ALL_HYPOTHESES,
    Hypothesis,
    NumericalError,
    Statistics,
    Twist,
    ValidationError,
)
from .inversion import convergence_curve, size_set_for
from .numtheory import b_coefficients, moebius_table
from .reconstruct import classify, criterion_check, reconstruct_band
from .riemann import synth_energy_series
from .seriesio import (
    format_float,
    parse_band_spec,
    parse_sizes,
    read_energy_csv,
    write_band_json,
    write_band_samples_csv,
    write_energy_csv,
)
from .spinchain import SpinChain, energy_series

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


@contextmanager
def _open_out(path: str | None):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _twists(text: str) -> tuple[Twist, ...]:
    if text == "both":
        return (Twist.PBC, Twist.ABC)
    return (Twist.parse(text),)


def _build_model(args):
    if args.model == "dimerized" and args.delta is None:
        raise ValidationError("--delta is required for the dimerized model")
    if args.model == "single-ion" and args.D is None:
        raise ValidationError("--D is required for the single-ion model")
    return SpinChain(args.model, args.J, args.delta or 0.0, args.D or 0.0)


def cmd_ed(args) -> int:
    model = _build_model(args)
    series = energy_series(model, parse_sizes(args.sizes), _twists(args.twist), args.seed)
    with _open_out(args.out) as fh:
        write_energy_csv(series, fh)
    return EXIT_OK


def cmd_forward(args) -> int:
    band = parse_band_spec(args.band)
    series = synth_energy_series(
        band,
        Statistics.parse(args.statistics),
        args.nu,
        Twist.parse(args.twist),
        parse_sizes(args.sizes),
    )
    with _open_out(args.out) as fh:
        write_energy_csv(series, fh)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    if args.samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {args.samples}")
    with open(args.energies) as fh:
        series = read_energy_csv(fh)
    e_inf = args.e_inf if args.e_inf is not None else series.e_inf
    if e_inf is None:
        raise ValidationError("no --e-inf given and none recorded in the CSV")
    nu = args.nu if args.nu is not None else series.nu
    if nu is None:
        raise ValidationError("no --nu given and none recorded in the CSV")
    data_twist = series.data_twist(Twist.parse(args.data_twist) if args.data_twist else None)
    if not series.sizes(data_twist):
        raise ValidationError(f"{args.energies} holds no {data_twist} energies")
    size_set = size_set_for(series.sizes(data_twist), args.size_set)

    if args.hypothesis == "auto":
        results = classify(series, e_inf, nu, size_set, data_twist)
    else:
        hypothesis = Hypothesis.parse(args.hypothesis)
        results = [
            reconstruct_band(series, e_inf, nu, hypothesis, size_set, data_twist)
        ]
    with _open_out(args.out) as fh:
        write_band_json(results, fh)
    if args.samples_out:
        chosen = [r for r in results if r.admissible] or results
        with open(args.samples_out, "w") as fh:
            write_band_samples_csv(chosen[0].band, fh, args.samples)
    return EXIT_OK


def cmd_criterion(args) -> int:
    with open(args.energies) as fh:
        series = read_energy_csv(fh)
    report = criterion_check(series)
    with _open_out(args.out) as fh:
        if args.json:
            json.dump(
                {
                    "per_L_defect": {str(L): d for L, d in report.per_L_defect.items()},
                    "max_relative_defect": report.max_relative_defect,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        else:
            fh.write("L,defect\n")
            for L, defect in sorted(report.per_L_defect.items()):
                fh.write(f"{L},{format_float(defect)}\n")
            fh.write(f"# max_relative_defect={format_float(report.max_relative_defect)}\n")
    return EXIT_OK


def cmd_convergence(args) -> int:
    if args.band:
        band = parse_band_spec(args.band)
    else:
        band = MassiveSineBand(J=1.0, m=args.mass)
    sizes = parse_sizes(args.sizes)
    curve = convergence_curve(band, sizes, Twist.parse(args.twist))
    with _open_out(args.out) as fh:
        fh.write("L,l2_sq_error\n")
        for L, err in curve:
            fh.write(f"{L},{format_float(err)}\n")
    return EXIT_OK


def cmd_kernel(args) -> int:
    M = args.max
    b_pbc = b_coefficients(Twist.PBC, M).tolist()
    b_abc = b_coefficients(Twist.ABC, M).tolist()
    mu, mertens = moebius_table(M)
    rows = zip(range(1, M + 1), mu.tolist(), mertens.tolist(), b_pbc, b_abc)
    with _open_out(args.out) as fh:
        fh.write("n,moebius,mertens,b_pbc,b_abc\n")
        fh.writelines(f"{n},{m},{s},{p},{a}\n" for n, m, s, p, a in rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandrec",
        description="Reconstruct quasi-particle dispersions from finite-size energies.",
    )
    parser.add_argument("--version", action="version", version=f"bandrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ed = sub.add_parser("ed", help="diagonalize a spin chain and emit an energy CSV")
    ed.add_argument("--model", required=True, choices=["heisenberg", "dimerized", "single-ion"])
    ed.add_argument("--J", type=float, default=1.0, help="exchange coupling")
    ed.add_argument("--delta", type=float, default=None, help="bond alternation (dimerized)")
    ed.add_argument("--D", type=float, default=None, help="single-ion anisotropy (single-ion)")
    ed.add_argument("--sizes", required=True, help="N, a,b,.. or start:end[:step] (inclusive)")
    ed.add_argument("--twist", default="pbc", choices=["pbc", "abc", "both"])
    ed.add_argument("--seed", type=int, default=0, help="Lanczos start-vector seed")
    ed.add_argument("--out", default=None, help="output CSV (default stdout)")
    ed.set_defaults(func=cmd_ed)

    fwd = sub.add_parser("forward", help="synthesize a quasi-free energy series")
    fwd.add_argument("--band", required=True, help="e.g. massive-sine:J=1,m=0.1")
    fwd.add_argument("--statistics", required=True, choices=["boson", "fermion"])
    fwd.add_argument("--nu", type=float, required=True, help="filling fraction")
    fwd.add_argument("--twist", default="pbc", choices=["pbc", "abc"])
    fwd.add_argument("--sizes", required=True)
    fwd.add_argument("--out", default=None)
    fwd.set_defaults(func=cmd_forward)

    rec = sub.add_parser("reconstruct", help="invert an energy series into band(s)")
    rec.add_argument("--energies", required=True, help="input energy CSV")
    rec.add_argument("--e-inf", dest="e_inf", type=float, default=None)
    rec.add_argument("--nu", type=float, default=None)
    rec.add_argument(
        "--hypothesis",
        default="auto",
        choices=["auto"] + [h.label for h in ALL_HYPOTHESES],
        help="'auto' classifies all four readings",
    )
    rec.add_argument(
        "--size-set",
        dest="size_set",
        default="auto",
        choices=["auto", "all-from-1", "even-only", "from-2"],
    )
    rec.add_argument(
        "--data-twist",
        dest="data_twist",
        default=None,
        choices=["pbc", "abc"],
        help="twist the energies were measured with (default: the one present, else pbc)",
    )
    rec.add_argument("--out", default=None, help="output band JSON (default stdout)")
    rec.add_argument("--samples-out", dest="samples_out", default=None)
    rec.add_argument("--samples", type=int, default=512)
    rec.set_defaults(func=cmd_reconstruct)

    cri = sub.add_parser("criterion", help="quasi-free feasibility check")
    cri.add_argument("--energies", required=True)
    cri.add_argument("--json", action="store_true")
    cri.add_argument("--out", default=None)
    cri.set_defaults(func=cmd_criterion)

    conv = sub.add_parser("convergence", help="reconstruction-error curve")
    conv.add_argument("--mass", type=float, default=0.0, help="mass of the default band")
    conv.add_argument("--band", default=None, help="override the band specification")
    conv.add_argument("--sizes", required=True, help="inversion cutoffs")
    conv.add_argument("--twist", default="pbc", choices=["pbc", "abc"])
    conv.add_argument("--out", default=None)
    conv.set_defaults(func=cmd_convergence)

    ker = sub.add_parser("kernel", help="tabulate moebius/mertens/inversion weights")
    ker.add_argument("--max", type=int, default=20)
    ker.add_argument("--out", default=None)
    ker.set_defaults(func=cmd_kernel)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
