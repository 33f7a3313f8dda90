"""Inputs of the `cli-pipeline` workload, made from the seed alone.

Every file the program reads is written here, with the benchmark's own
aliasing sums; `oracle.py` holds the matching expectations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from oracle import (
    aliasing_sums,
    check_admissible_pair,
    check_convergence,
    check_criterion,
    check_kernel,
    check_round_trip,
    check_series,
    convergence_errors,
    load_references,
    massive_sine_mean,
    twisted_mean,
)

#: 1/4 - ln 2, the infinite-size energy density of the exchange ring
HEISENBERG_E_INF = -0.4431471805599453


@dataclass
class SyntheticBand:
    """A non-negative cosine series and the quasi-free reading it is written under."""

    c0: float
    coeffs: np.ndarray
    statistics: str
    twist: str
    nu: float

    @property
    def q(self) -> int:
        return 1 if self.twist == "pbc" else -1

    @property
    def factor(self) -> float:
        return (1.0 if self.statistics == "boson" else -1.0) * self.nu / 2.0

    def totals(self, sizes, twist: str | None = None) -> dict[tuple[int, str], float]:
        tw = twist or self.twist
        sums = aliasing_sums(self.c0, self.coeffs, sizes, 1 if tw == "pbc" else -1)
        return {(L, tw): float(L * self.factor * S) for L, S in zip(sizes, sums)}


def random_band(rng: np.random.Generator, degree: int) -> SyntheticBand:
    coeffs = rng.uniform(-1.0, 1.0, degree) * np.arange(1, degree + 1) ** -1.5
    return SyntheticBand(
        c0=float(np.abs(coeffs).sum() + rng.uniform(0.05, 0.5)),
        coeffs=coeffs,
        statistics=str(rng.choice(["boson", "fermion"])),
        twist=str(rng.choice(["pbc", "abc"])),
        nu=float(rng.choice([0.5, 1.0, 2.0])),
    )


def write_series(path: Path, totals: dict, nu: float | None, e_inf: float | None) -> None:
    lines = []
    if nu is not None:
        lines.append(f"# nu={nu!r}")
    if e_inf is not None:
        lines.append(f"# e_inf={e_inf!r}")
    lines.append("L,twist,E_total")
    for tw in ("pbc", "abc"):
        lines += [f"{L},{tw},{E!r}" for (L, t), E in sorted(totals.items()) if t == tw]
    path.write_text("\n".join(lines) + "\n")


@dataclass
class Command:
    """One bandrec invocation of the script and the check of its output file."""

    name: str
    argv: list[str]
    out: str
    check: Callable[[Path], list[str]]


def cli_pipeline(seed: int, work: Path) -> list[Command]:
    """Write the workload's input files into `work` and return its command script."""
    rng = np.random.default_rng(seed % 2**32)
    small, both, large, wide = (random_band(rng, n) for n in (64, 64, 1024, 384))
    m_fwd = float(rng.uniform(0.05, 0.6))
    # light masses keep the error curve above rounding up to the largest cutoff
    m_conv, m_conv_large = (float(m) for m in rng.uniform(0.01, 0.1, 2))
    tw_conv = str(rng.choice(["pbc", "abc"]))
    q_conv = 1 if tw_conv == "pbc" else -1

    heis = load_references()["heisenberg"]["pbc"]
    write_series(work / "heis.csv", {(L, "pbc"): heis[L] for L in range(2, 17, 2)}, 1.0, None)
    write_series(work / "synth64.csv", small.totals(range(1, 65)), small.nu,
                 small.factor * small.c0)
    write_series(work / "synth1024.csv", large.totals(range(1, 1025)), large.nu,
                 large.factor * large.c0)
    both_totals = {**both.totals(range(1, 65), "pbc"), **both.totals(range(1, 33), "abc")}
    write_series(work / "both.csv", both_totals, both.nu, None)
    (work / "band384.json").write_text(
        json.dumps({"c0": wide.c0, "coeffs": wide.coeffs.tolist()}) + "\n"
    )
    fwd64 = {(L, small.twist): L * small.factor * twisted_mean(m_fwd, L, small.q)
             for L in range(1, 65)}

    def reading(band: SyntheticBand) -> list[str]:
        return ["--statistics", band.statistics, "--nu", repr(band.nu), "--twist", band.twist]

    def convergence(m: float, cutoffs: range) -> Callable[[Path], list[str]]:
        return lambda p: check_convergence(p, convergence_errors(m, tuple(cutoffs), q_conv))

    return [
        Command("forward-64",
                ["forward", "--band", f"massive-sine:J=1,m={m_fwd!r}", *reading(small),
                 "--sizes", "1:64"], "fwd64.csv",
                lambda p: check_series(p, fwd64, small.factor * massive_sine_mean(m_fwd))),
        Command("reconstruct-heisenberg",
                ["reconstruct", "--energies", "heis.csv", "--e-inf", repr(HEISENBERG_E_INF),
                 "--nu", "1", "--hypothesis", "auto", "--size-set", "even-only"],
                "heis.json", check_admissible_pair),
        Command("reconstruct-64",
                ["reconstruct", "--energies", "synth64.csv", "--hypothesis", "auto"], "rec64.json",
                lambda p: check_round_trip(p, small.statistics, small.twist, small.coeffs)),
        Command("criterion", ["criterion", "--energies", "both.csv", "--json"], "crit.json",
                lambda p: check_criterion(p, work / "both.csv")),
        Command("convergence-60",
                ["convergence", "--mass", repr(m_conv), "--twist", tw_conv, "--sizes", "10:60"],
                "conv60.csv", convergence(m_conv, range(10, 61))),
        Command("kernel-20", ["kernel", "--max", "20"], "k20.csv", lambda p: check_kernel(p, 20)),
        Command("kernel-5000", ["kernel", "--max", "5000"], "k5000.csv",
                lambda p: check_kernel(p, 5000)),
        Command("forward-384",
                ["forward", "--band", "file:band384.json", *reading(wide), "--sizes", "1:384"],
                "fwd384.csv",
                lambda p: check_series(p, wide.totals(range(1, 385)), wide.factor * wide.c0)),
        Command("reconstruct-1024",
                ["reconstruct", "--energies", "synth1024.csv", "--hypothesis", "auto"],
                "rec1024.json",
                lambda p: check_round_trip(p, large.statistics, large.twist, large.coeffs)),
        Command("convergence-512",
                ["convergence", "--mass", repr(m_conv_large), "--twist", tw_conv,
                 "--sizes", "16:512:16"],
                "conv512.csv", convergence(m_conv_large, range(16, 513, 16))),
    ]
