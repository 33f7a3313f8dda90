"""The command line starts on numpy alone; SciPy loads only when ED needs it."""

import os
import subprocess
import sys
from pathlib import Path

import bandrec

SCRIPT = """
import contextlib, io, sys
import bandrec.cli
from bandrec.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    assert main(["kernel", "--max", "20"]) == 0
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def run_python(code: str, *args: str) -> str:
    env = dict(os.environ)
    src = str(Path(bandrec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_and_number_commands_load_no_scipy():
    assert run_python(SCRIPT) == ""


def test_ed_loads_scipy_lazily(tmp_path):
    out = tmp_path / "ed.csv"
    code = "import sys; from bandrec.cli import main; sys.exit(main(sys.argv[1:]))"
    run_python(code, "ed", "--model", "heisenberg", "--sizes", "4", "--out", str(out))
    rows = out.read_text().splitlines()
    assert rows[-1].startswith("4,pbc,")
    assert abs(float(rows[-1].split(",")[2]) + 2.0) < 1e-12  # 4-site ring: E0 = -2J
