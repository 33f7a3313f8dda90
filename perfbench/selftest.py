"""Show that each oracle passes a real output and rejects a corrupted copy of it.

    python3 perfbench/run.py --self-test

Real outputs come from one `cli-pipeline` pass (seed 0) and one small
`bandrec ed` run.  Each corruption changes one number: an energy, a weight,
a coefficient, an admissibility flag, a doubling defect or an error value.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import run
from generate import Command
from oracle import EnergyOracle, check_energies, read_energy_rows


def _bump_energy(path: Path) -> None:
    lines = path.read_text().splitlines()
    L, tw, E = lines[-1].split(",")
    lines[-1] = f"{L},{tw},{float(E) + 1e-8 * max(1.0, abs(float(E)))!r}"
    path.write_text("\n".join(lines) + "\n")


def _bump_weight(path: Path) -> None:
    lines = path.read_text().splitlines()
    row = lines[12].split(",")  # n = 12
    row[4] = str(int(row[4]) + 1)  # b_abc
    lines[12] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(edit):
    def corrupt(path: Path) -> None:
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))

    return corrupt


def _bump_coefficient(payload) -> None:
    for entry in payload:
        entry["coeffs"][3] += 1e-8


def _flip_admissible(payload) -> None:
    payload[0]["admissible"] = not payload[0]["admissible"]


def _bump_defect(payload) -> None:
    payload["per_L_defect"]["1"] += 1e-6


def _bump_error(path: Path) -> None:
    lines = path.read_text().splitlines()
    L, err = lines[1].split(",")
    lines[1] = f"{L},{float(err) * 1.001!r}"
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "forward-64": ("energy", _bump_energy),
    "reconstruct-heisenberg": ("admissibility flag", _edit_json(_flip_admissible)),
    "reconstruct-64": ("coefficient", _edit_json(_bump_coefficient)),
    "criterion": ("doubling defect", _edit_json(_bump_defect)),
    "convergence-60": ("error value", _bump_error),
    "kernel-20": ("weight", _bump_weight),
    "kernel-5000": ("weight", _bump_weight),
    "forward-384": ("energy", _bump_energy),
    "reconstruct-1024": ("coefficient", _edit_json(_bump_coefficient)),
    "convergence-512": ("error value", _bump_error),
    "ed": ("energy", _bump_energy),
}


def self_test() -> int:
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    commands = run.set_up("cli-pipeline", 0, deadline)[0](0)
    oracle = EnergyOracle("heisenberg", 2, 1.0, 0.0)

    def check_ed(path: Path) -> list[str]:
        return check_energies(read_energy_rows(path)[1], oracle, range(2, 11, 2), ("pbc", "abc"))

    ed = Command("ed", ["ed", "--model", "heisenberg", "--sizes", "2:10:2", "--twist", "both"],
                 "ed.csv", check_ed)
    ok = True
    for request in run.run_pass(commands + [ed], 0, False, deadline):
        clean = run.problems(request)
        what, corrupt = CORRUPTIONS[request.command.name]
        copy = request.out.with_name("corrupted-" + request.out.name)
        shutil.copyfile(request.out, copy)
        corrupt(copy)
        try:
            caught = request.command.check(copy)
        except (ValueError, KeyError, TypeError) as exc:
            caught = [repr(exc)]
        passed = not clean and bool(caught)
        ok &= passed
        print(f"self-test {request.command.name}: real output "
              f"{'passes' if not clean else 'FAILS: ' + clean[0]}; one corrupted {what} "
              f"{'is caught: ' + caught[0] if caught else 'is NOT caught'}")
    shutil.rmtree(run.WORK, ignore_errors=True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
