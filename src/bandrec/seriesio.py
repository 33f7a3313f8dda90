"""File formats: the energy-series CSV and the band JSON.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so acceptance baselines can be compared as file diffs.
"""

from __future__ import annotations

import csv
import json
import math
from typing import TextIO

import numpy as np

from .bands import AbsSineBand, Band, FourierBand, MassiveSineBand, momenta, sample
from .core import Twist, ValidationError
from .reconstruct import ReconstructionResult
from .riemann import EnergySeries

ENERGY_HEADER = ["L", "twist", "E_total"]


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_energy_csv(series: EnergySeries, stream: TextIO) -> None:
    if series.model is not None:
        stream.write(f"# model={series.model}\n")
    if series.nu is not None:
        stream.write(f"# nu={format_float(series.nu)}\n")
    if series.e_inf is not None:
        stream.write(f"# e_inf={format_float(series.e_inf)}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(ENERGY_HEADER)
    for L, twist, E_total in series.items():
        writer.writerow([L, twist.value, format_float(E_total)])


def read_energy_csv(stream: TextIO) -> EnergySeries:
    series = EnergySeries()
    rows = []
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _parse_metadata(line[1:].strip(), series)
            continue
        rows.append(line)
    if not rows:
        raise ValidationError("energy CSV has no data rows")
    reader = csv.reader(rows)
    header = next(reader)
    if [h.strip() for h in header] != ENERGY_HEADER:
        raise ValidationError(f"bad energy CSV header {header!r}, expected {ENERGY_HEADER}")
    for row in reader:
        if len(row) != 3:
            raise ValidationError(f"bad energy CSV row {row!r}")
        try:
            L = int(row[0])
        except ValueError:
            raise ValidationError(f"bad size {row[0]!r} in energy CSV") from None
        twist = Twist.parse(row[1])
        try:
            E = float(row[2])
        except ValueError:
            raise ValidationError(f"bad energy {row[2]!r} in energy CSV") from None
        if not math.isfinite(E):
            raise ValidationError(f"non-finite energy {row[2]!r} in energy CSV")
        series.add(L, twist, E)
    return series


def _parse_metadata(text: str, series: EnergySeries) -> None:
    if "=" not in text:
        return
    key, _, value = text.partition("=")
    key = key.strip().lower()
    value = value.strip()
    try:
        if key == "nu":
            series.nu = float(value)
        elif key == "e_inf":
            series.e_inf = float(value)
        elif key == "model":
            series.model = value
    except ValueError:
        raise ValidationError(f"bad metadata value in comment: {text!r}") from None


def band_to_dict(result: ReconstructionResult) -> dict:
    band = result.band
    return {
        "c0": band.c0,
        "coeffs": [float(a) for a in band.coeffs],
        "undetermined_a1": band.undetermined_a1,
        "hypothesis": {
            "statistics": result.hypothesis.statistics.value,
            "twist": result.hypothesis.twist.value,
        },
        "nu": result.nu,
        "e_inf": result.e_inf,
        "admissible": result.admissible,
        "min_band_value": result.min_band_value,
        "l2_residual_forward": result.l2_residual_forward,
        "completion": result.completion,
    }


def write_band_json(results: list[ReconstructionResult], stream: TextIO) -> None:
    payload = [band_to_dict(r) for r in results]
    json.dump(payload[0] if len(payload) == 1 else payload, stream, indent=2)
    stream.write("\n")


def read_band_json(stream: TextIO) -> list[dict]:
    payload = json.load(stream)
    entries = payload if isinstance(payload, list) else [payload]
    for entry in entries:
        if "c0" not in entry or "coeffs" not in entry:
            raise ValidationError("band JSON entries need 'c0' and 'coeffs'")
    return entries


def band_from_dict(entry: dict) -> FourierBand:
    return FourierBand(
        float(entry["c0"]),
        np.asarray(entry["coeffs"], dtype=float),
        bool(entry.get("undetermined_a1", False)),
    )


def write_band_samples_csv(band: FourierBand, stream: TextIO, n_samples: int) -> None:
    """The band at the n_samples periodic momenta, one `k,omega` row each."""
    k = momenta(n_samples, Twist.PBC)
    values = sample(band, n_samples, Twist.PBC)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["k", "omega"])
    for ki, vi in zip(k, values):
        writer.writerow([format_float(float(ki)), format_float(float(vi))])


def parse_sizes(text: str) -> tuple[int, ...]:
    """Parse sizes, each >= 1: 'N', 'a,b,..', 'start:end' or 'start:end:step' (inclusive)."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                parts.append(1)
            start, end, step = parts
            if step < 1 or end < start:
                raise ValueError
            sizes = range(start, end + 1, step)
        else:
            sizes = sorted({int(p) for p in text.split(",")})
        if sizes[0] < 1:
            raise ValueError
        return tuple(sizes)
    except ValueError:
        raise ValidationError(
            f"bad size specification {text!r}; "
            "use N, a,b,.., start:end or start:end:step, all >= 1"
        ) from None


def parse_band_spec(text: str) -> Band:
    """Parse a CLI band specification.

    Forms: 'massive-sine:J=1,m=0.1', 'abs-sine:amplitude=1.5',
    'constant:c0=3', 'fourier:c0=1,coeffs=0.5;0;-0.25', 'file:band.json'.
    """
    kind, _, argtext = text.partition(":")
    kind = kind.strip().lower()
    if kind == "file":
        with open(argtext) as fh:
            entries = read_band_json(fh)
        if len(entries) != 1:
            raise ValidationError("band file contains several bands; pick one")
        return band_from_dict(entries[0])
    args: dict[str, str] = {}
    if argtext:
        for item in argtext.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValidationError(f"bad band parameter {item!r} (expected key=value)")
            args[key.strip().lower()] = value.strip()
    try:
        if kind == "massive-sine":
            return MassiveSineBand(J=float(args.get("j", 1.0)), m=float(args.get("m", 0.0)))
        if kind == "abs-sine":
            return AbsSineBand(amplitude=float(args.get("amplitude", 1.0)))
        if kind == "constant":
            return FourierBand(float(args.get("c0", 0.0)))
        if kind == "fourier":
            coeffs = [float(v) for v in args.get("coeffs", "").split(";") if v]
            return FourierBand(float(args.get("c0", 0.0)), coeffs)
    except ValueError:
        raise ValidationError(f"bad numeric value in band spec {text!r}") from None
    raise ValidationError(
        f"unknown band kind {kind!r}; expected massive-sine, abs-sine, constant, "
        "fourier or file"
    )
