"""Benchmark of the bandrec command line, one fresh process per request.

    python3 perfbench/run.py --workload ed-single-ion --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --self-test                        # the oracles catch corruption

A closed loop with one client runs the workload's script of `bandrec`
commands, pass after pass, as long as the next pass should end within
`--seconds` (at least one pass).  Every output file is then checked against `oracle.py`,
which shares no code with `src/bandrec`.  With `--trace 1` each pass is
run twice, plainly and under `trace_child.py`, and the per-layer numbers
of the traced passes are reported instead of the end-to-end ones.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See NOTES.md for the workloads, metrics and known defects.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from generate import Command, cli_pipeline  # noqa: E402
from oracle import EnergyOracle, check_energies, read_energy_rows  # noqa: E402

# the console script `bandrec = bandrec.cli:main`, run from the source tree
BANDREC = [sys.executable, "-c", "import sys; from bandrec.cli import main; sys.exit(main())"]
TRACED = [sys.executable, str(BENCH / "trace_child.py")]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
SETUP_REPEATS = 3
#: any process still running this long after the run began is killed and counted as failed
RUN_LIMIT_S = 165.0

# Why each workload: see NOTES.md.
ED_WORKLOADS = {
    "ed-heisenberg": dict(
        args=["--model", "heisenberg", "--J", "1", "--sizes", "12:20:2", "--twist", "both"],
        oracle=("heisenberg", 2, 1.0, 0.0), sizes=range(12, 21, 2)),
    "ed-single-ion": dict(
        args=["--model", "single-ion", "--J", "1", "--D", "7.4", "--sizes", "2:13", "--twist", "both"],
        oracle=("single-ion", 3, 1.0, 7.4), sizes=range(2, 14)),
}
WORKLOADS = [*ED_WORKLOADS, "cli-pipeline"]

# Times are CPU seconds (user + system, all threads) from os.wait4: on a shared
# VM the hypervisor's steal time swings wall time by tens of percent between
# runs, and CPU time does not see it.  Wall times are printed beside them.
END_TO_END = {"setup_s": "s", "request_cpu_s": "s", "script_cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "spinchain.basis_s": "s", "spinchain.basis_useful_ratio": "ratio",
    "spinchain.assembly_s": "s", "spinchain.nnz": "count",
    "spinchain.matvec_s": "s", "spinchain.matvec_calls": "count",
    "spinchain.matvec_ns_per_nnz": "ns", "spinchain.matvec_bytes": "bytes",
    "lanczos.self_s": "s", "lanczos.iterations": "count", "lanczos.krylov_mb": "MB",
    "lanczos.reorth_flops": "flop",
    "bandrec.import_s": "s", "numpy.import_s": "s",
    "numtheory.weights_s": "s", "numtheory.tables_s": "s",
    "riemann.synth_s": "s", "riemann.sum_s": "s", "riemann.sum_calls": "count",
    "bands.cosine_s": "s", "bands.cosine_evals": "count", "bands.mean_s": "s",
    "inversion.invert_s": "s", "inversion.invert_calls": "count", "inversion.convergence_s": "s",
    "reconstruct.self_s": "s", "seriesio.read_s": "s", "seriesio.write_s": "s", "cli.self_s": "s",
    "unattributed_s": "s", "trace_overhead_frac": "ratio",
}


@dataclass
class Request:
    command: Command
    out: Path
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    spans: Path | None


def launch(argv: list[str], deadline: float) -> tuple[float, float, float, int]:
    """Run one process to completion: (wall s, CPU s, peak RSS in MB, exit code)."""
    with open(WORK / "stderr.log", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=ENV, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def ed_script(name: str, seed: int):
    """Pass i runs the one `ed` command with the i-th Lanczos seed drawn from `seed`."""
    spec = ED_WORKLOADS[name]
    oracle = EnergyOracle(*spec["oracle"])
    rng = random.Random(seed)

    def check(path: Path) -> list[str]:
        _, rows = read_energy_rows(path)
        return check_energies(rows, oracle, spec["sizes"], ("pbc", "abc"))

    def script(i: int) -> list[Command]:
        while len(lanczos_seeds) <= i:
            lanczos_seeds.append(rng.randrange(2**31))
        return [Command("ed", ["ed", *spec["args"], "--seed", str(lanczos_seeds[i])], "ed.csv", check)]

    lanczos_seeds: list[int] = []
    return script


def set_up(workload: str, seed: int, deadline: float):
    """Build the program (byte-compile), write the inputs and warm the interpreter once.

    Returns the workload's script and the CPU seconds of the warm-up process.
    """
    if not (SRC / "bandrec" / "cli.py").is_file():
        raise SystemExit(f"no bandrec sources under {SRC}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    if not compileall.compile_dir(SRC / "bandrec", quiet=2, force=True):
        raise SystemExit("byte-compiling src/bandrec failed")
    if workload in ED_WORKLOADS:
        script = ed_script(workload, seed)
    else:
        commands = cli_pipeline(seed, WORK)
        script = lambda i: commands  # noqa: E731
    _, cpu, _, code = launch(BANDREC + ["--version"], deadline)
    if code != 0:
        raise SystemExit("`bandrec --version` failed")
    return script, cpu


def run_pass(commands: list[Command], i: int, traced: bool, deadline: float) -> list[Request]:
    tag = f"{'traced' if traced else 'plain'}{i}"
    (WORK / tag).mkdir()
    done = []
    for cmd in commands:
        out = WORK / tag / cmd.out
        spans = WORK / tag / f"{cmd.name}.spans.json" if traced else None
        prefix = TRACED + [str(spans)] if traced else BANDREC
        done.append(Request(cmd, out, *launch(prefix + cmd.argv + ["--out", str(out)], deadline),
                            spans))
    return done


def problems(r: Request) -> list[str]:
    """Why one request's output is wrong; empty when it passed its check."""
    if r.exit != 0:
        return [f"exit code {r.exit}"]
    try:
        return r.command.check(r.out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def layer_metrics(passes: list[list[Request]]) -> dict[str, float]:
    """Per-layer numbers of each traced pass, then the lower median over passes."""
    per_pass = []
    for requests in passes:
        reports = [json.loads(r.spans.read_text()) for r in requests if r.exit == 0]
        if not reports:
            continue
        own = {k: sum(rep["self_s"].get(k, 0.0) for rep in reports)
               for k in {k for rep in reports for k in rep["self_s"]}}
        count = {k: sum(rep["counts"].get(k, 0.0) for rep in reports)
                 for k in ("riemann.sum_calls", "bands.cosine_evals", "inversion.invert_calls")}
        solves = [s for rep in reports for s in rep["solves"]]
        bases = [b for rep in reports for b in rep["bases"]]
        matvec_nnz = sum(s["nnz"] * s["matvec_calls"] for s in solves)
        m = {
            "spinchain.basis_s": own.get("spinchain.basis", 0.0),
            "spinchain.basis_useful_ratio":
                sum(8 * b["dim"] for b in bases) / max(1, sum(b["peak_bytes"] for b in bases)),
            "spinchain.assembly_s": own.get("spinchain.assembly", 0.0),
            "spinchain.nnz": sum(a["nnz"] for rep in reports for a in rep["assemblies"]),
            "spinchain.matvec_s": own.get("spinchain.matvec", 0.0),
            "spinchain.matvec_calls": sum(s["matvec_calls"] for s in solves),
            "spinchain.matvec_ns_per_nnz": 1e9 * own.get("spinchain.matvec", 0.0) / max(1, matvec_nnz),
            "spinchain.matvec_bytes":
                sum(s["matvec_calls"] * (12 * s["nnz"] + 16 * s["dim"]) for s in solves),
            "lanczos.self_s": own.get("lanczos", 0.0),
            "lanczos.iterations": sum(s["iterations"] for s in solves),
            "lanczos.krylov_mb": max([8e-6 * s["iterations"] * s["dim"] for s in solves], default=0.0),
            "lanczos.reorth_flops":
                sum(4 * s["dim"] * s["iterations"] * (s["iterations"] + 1) for s in solves),
            "bandrec.import_s": statistics.median(rep["import_s"] for rep in reports),
            "numpy.import_s": statistics.median(rep["numpy_import_s"] for rep in reports),
            "numtheory.weights_s": own.get("numtheory.weights", 0.0),
            "numtheory.tables_s": own.get("numtheory.tables", 0.0),
            "riemann.synth_s": own.get("riemann.synth", 0.0),
            "riemann.sum_s": own.get("riemann.sum", 0.0),
            "riemann.sum_calls": count["riemann.sum_calls"],
            "bands.cosine_s": own.get("bands.cosine", 0.0),
            "bands.cosine_evals": count["bands.cosine_evals"],
            "bands.mean_s": own.get("bands.mean", 0.0),
            "inversion.invert_s": own.get("inversion.invert", 0.0),
            "inversion.invert_calls": count["inversion.invert_calls"],
            "inversion.convergence_s": own.get("inversion.convergence", 0.0),
            "reconstruct.self_s": own.get("reconstruct", 0.0),
            "seriesio.read_s": own.get("seriesio.read", 0.0),
            "seriesio.write_s": own.get("seriesio.write", 0.0),
            "cli.self_s": own.get("cli", 0.0),
            # process wall minus import and every span: interpreter start-up and exit
            "unattributed_s": sum(r.wall_s for r in requests if r.exit == 0)
                - sum(rep["import_s"] + sum(rep["self_s"].values()) for rep in reports),
        }
        per_pass.append(m)
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]} if per_pass else {}


def entry_zero_lines(passes: list[list[Request]]) -> list[str]:
    """Set the first traced pass beside the ROADMAP baseline recorded as entry zero."""
    base = json.loads((BENCH / "baseline_entry0.json").read_text())
    if not passes or passes[0][0].exit != 0:
        return []
    rep = json.loads(passes[0][0].spans.read_text())
    lines = [f"entry0 import_s {rep['import_s']:.3f} (entry zero {base['import_s']}), "
             f"numpy_import_s {rep['numpy_import_s']:.3f} (entry zero {base['numpy_import_s']})"]
    for ref in base["ed"]:
        solve = next((s for s in rep["solves"] if s["dim"] == ref["dim"]), None)
        if solve is None:
            continue
        basis = next((b for b in rep["bases"] if b["dim"] == ref["dim"]), {})
        asm = next((a for a in rep["assemblies"] if a["L"] == ref["L"]), {})
        mine = {
            "dim": solve["dim"],
            "iterations": solve["iterations"],
            "lanczos_s": solve["lanczos_s"],
            "matvec_ms": 1e3 * solve["matvec_s"] / max(1, solve["matvec_calls"]),
            "basis_s": basis.get("s"),
            "assembly_s": asm.get("s"),
        }
        parts = [f"{k} {mine[k]:.4g} (entry zero {v})" if isinstance(mine[k], float)
                 else f"{k} {mine[k]} (entry zero {v})"
                 for k, v in ref.items() if mine.get(k) is not None]
        lines.append(f"entry0 {ref['model']} L={ref['L']} pbc: " + ", ".join(parts))
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        t0, c0 = time.perf_counter(), time.process_time()
        script, child_cpu = set_up(workload, seed, deadline)
        setups.append(time.process_time() - c0 + child_cpu)
        setup_walls.append(time.perf_counter() - t0)

    # closed loop: the next pass starts only if, at the last pass's pace, it ends in time
    plain, traced = [], []
    loop_start = time.perf_counter()
    for i in itertools.count():
        pass_start = time.perf_counter()
        plain.append(run_pass(script(i), i, False, deadline))
        if trace:
            traced.append(run_pass(script(i), i, True, deadline))
        now = time.perf_counter()
        if 2 * now - pass_start > min(loop_start + seconds, deadline):
            break

    requests = [r for p in plain + traced for r in p]
    errors = [(r, problems(r)) for r in requests]
    failed = sum(1 for _, e in errors if e)
    notes = [f"error: {r.out.parent.name}/{r.command.name}: {e[0]}" for r, e in errors if e][:20]
    if trace:
        metrics = layer_metrics(traced)
        metrics["trace_overhead_frac"] = statistics.median(
            t.wall_s / p.wall_s - 1.0 for ps, ts in zip(plain, traced) for p, t in zip(ps, ts))
        units = PER_LAYER
        notes += entry_zero_lines(traced)
        notes.append(f"samples: traced passes {len(traced)}")
    else:
        requests_plain = [r for p in plain for r in p]
        metrics = {
            "setup_s": statistics.median(setups),
            "request_cpu_s": statistics.median(r.cpu_s for r in requests_plain),
            "script_cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in plain),
            "peak_rss_mb": max(r.rss_mb for r in requests_plain),
        }
        units = END_TO_END
        notes.append(f"samples: setup {len(setups)}, requests {len(requests_plain)}, passes {len(plain)}")
        notes.append(
            f"wall time: setup {statistics.median(setup_walls):.4g} s, "
            f"request p50 {statistics.median(r.wall_s for r in requests_plain):.4g} s, "
            f"pass {statistics.median(sum(r.wall_s for r in p) for p in plain):.4g} s")
    notes.append(f"ops_failed_frac = {failed / max(1, len(requests)):.6g} "
                 f"({failed} failed of {len(requests)} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    return result, notes


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree (read directly, no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS uses every core)"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def print_result(workload: str, result: dict, notes: list[str]) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"{workload} {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every oracle rejects a corrupted copy of a real output")
    args = parser.parse_args(argv)
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, result, notes)
        results[name] = result
    shutil.rmtree(WORK, ignore_errors=True)
    print("env " + json.dumps(environment(), sort_keys=True))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
