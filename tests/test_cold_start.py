"""The command line starts on numpy alone; ED loads only SciPy's sparse kernels.

ED loads the `scipy.sparse._sparsetools` extension, for the products of its
matvec (A v, A^T v and each class's C_s X_s and X_s B_s), and no SciPy
package: Lanczos runs on numpy alone, and no `numpy.random` either.  The
extension is held privately, so no `scipy` module is left in `sys.modules`
and a later `import scipy.sparse` finds its own kernel module.

Importing bandrec before numpy also fixes the BLAS pool at one thread unless
the user chose otherwise. These checks run in fresh interpreters, because
pytest may have imported numpy before bandrec.
"""

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


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI = "import sys; from bandrec.cli import main; sys.exit(main(sys.argv[1:]))"
# runs the command line, then prints the SciPy modules it loaded
CLI_SCIPY = """
import sys
from bandrec.cli import main
assert main(sys.argv[1:]) == 0
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def run_python(code: str, *args: str, env_update: dict | None = None) -> str:
    """Run code in a fresh interpreter; a None value in env_update unsets that variable."""
    env = dict(os.environ)
    for name, value in (env_update or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    src = str(Path(bandrec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_and_number_commands_load_no_scipy():
    assert run_python(SCRIPT) == ""


# runs the command line, then prints the SciPy modules it loaded, and the
# module and the names of the kernels ED holds
CLI_KERNELS = CLI_SCIPY + """
from bandrec.spinchain import _sparse_kernels
kernels = _sparse_kernels()
print(*{k.__self__.__name__ for k in kernels}, ",".join(k.__name__ for k in kernels))
"""


def test_ed_loads_only_the_sparse_kernels(tmp_path):
    # the kernel module is loaded from its file and held privately: no SciPy
    # package is imported and no scipy module is left in sys.modules.  The
    # 4-site ring's bond (2, 3) lies inside the high half, so csr_matvecs ran
    out = tmp_path / "ed.csv"
    *loaded, kernels = run_python(
        CLI_KERNELS, "ed", "--model", "heisenberg", "--sizes", "4", "--out", str(out)
    ).split("\n")
    rows = out.read_text().splitlines()
    assert rows[-1].startswith("4,pbc,")
    assert abs(float(rows[-1].split(",")[2]) + 2.0) < 1e-12  # 4-site ring: E0 = -2J
    assert loaded == []
    assert kernels == "scipy.sparse._sparsetools coo_matvec,csr_matvecs"


# runs ED, with scipy.sparse imported before it or not, then checks the
# matvec of both twists of one sector matrix against SciPy's kernel module,
# reached as the attribute scipy.sparse._sparsetools, A's products against
# SciPy's own coo_matrix @ v and .T @ v, and each class's csr_matvecs
# product against SciPy's own csr_matrix @ X
KERNEL_IDENTITY = """
import sys
import numpy as np
from bandrec import SpinChain, Twist
from bandrec.cli import main
from bandrec.spinchain import SectorBasis, SpinModelSpec, build_hamiltonian

before_ed, csv_path = sys.argv[1] == "scipy-first", sys.argv[2]
if before_ed:
    import scipy.sparse
assert main(["ed", "--model", "single-ion", "--D", "7.4", "--sizes", "6", "--out", csv_path]) == 0
scipy_modules = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert before_ed or scipy_modules == [], scipy_modules

model = SpinChain("single-ion", 1.0, D=7.4)
basis = SectorBasis.build(8, 3)
hams = [build_hamiltonian(SpinModelSpec(model, twist), 8, basis) for twist in (Twist.PBC, Twist.ABC)]
vs = [np.random.default_rng(seed).standard_normal(ham.diag.size) for seed, ham in enumerate(hams)]
products = [np.zeros_like(v) for v in vs]
for ham, v, product in zip(hams, vs, products):
    ham.matvec(v, product)

import scipy.sparse

tools = scipy.sparse._sparsetools
assert sys.modules["scipy.sparse._sparsetools"] is tools
for ham, v, product in zip(hams, vs, products):
    n = ham.diag.size
    A = scipy.sparse.coo_matrix((ham.data, (ham.rows, ham.cols)), shape=(n, n))
    lower, upper = np.zeros(n), np.zeros(n)
    tools.coo_matvec(ham.data.size, ham.rows, ham.cols, ham.data, v, lower)
    tools.coo_matvec(ham.data.size, ham.cols, ham.rows, ham.data, v, upper)
    assert np.array_equal(lower, A @ v) and np.array_equal(upper, A.T @ v)
    out = ham.diag * v
    tools.coo_matvec(ham.data.size, ham.rows, ham.cols, ham.data, v, out)
    tools.coo_matvec(ham.data.size, ham.cols, ham.rows, ham.data, v, out)
    expected = A @ v + A.T @ v + ham.diag * v
    assert len(ham.classes) > 1 and ham.low_data.size > 0
    for row, end, low, low_end, start, stop in ham.classes:
        ptr = ham.high_indptr[row : end + 1]
        C = scipy.sparse.csr_matrix(
            (ham.high_data[ptr[0] : ptr[-1]], ham.high_indices[ptr[0] : ptr[-1]], ptr - ptr[0]),
            shape=(end - row, end - row),
        )
        X = v[start:stop].reshape(end - row, low_end - low)
        Y = np.zeros_like(X)
        high = (end - row, end - row, X.shape[1], ptr, ham.high_indices, ham.high_data, X)
        tools.csr_matvecs(*high, Y)
        assert np.array_equal(Y, C @ X)
        tools.csr_matvecs(*high, out[start:stop])
        expected[start:stop] += Y.ravel()
        # the low half's bonds: (B_s X_s^T)^T, through a transposed copy
        ptr = ham.low_indptr[low : low_end + 1]
        B = scipy.sparse.csr_matrix(
            (ham.low_data[ptr[0] : ptr[-1]], ham.low_indices[ptr[0] : ptr[-1]], ptr - ptr[0]),
            shape=(low_end - low, low_end - low),
        )
        Yt = np.zeros_like(X.T)
        low_csr = (ptr, ham.low_indices, ham.low_data)
        tools.csr_matvecs(low_end - low, low_end - low, end - row, *low_csr, X.T.copy(), Yt)
        assert np.array_equal(Yt, B @ X.T)
        out[start:stop] += Yt.T.ravel()
        expected[start:stop] += (B @ X.T).T.ravel()
    again = np.zeros_like(v)
    assert ham.matvec(v, again) is None
    assert np.array_equal(again, out) and np.array_equal(product, out)
    assert np.abs(expected - out).max() <= 1e-12 * np.abs(out).max()
print("ok")
"""


def test_kernels_are_the_ones_scipy_sparse_uses(tmp_path):
    # scipy.sparse imported first: ED reuses its kernel module
    assert run_python(KERNEL_IDENTITY, "scipy-first", str(tmp_path / "ed.csv")) == "ok"


def test_scipy_sparse_imported_after_ed_finds_its_kernel_module(tmp_path):
    # the kernel module ED loaded was once left half-registered in sys.modules,
    # so scipy.sparse._sparsetools raised AttributeError after `import scipy.sparse`
    assert run_python(KERNEL_IDENTITY, "ed-first", str(tmp_path / "ed.csv")) == "ok"


# runs the command line, then prints the numpy.random modules it loaded
CLI_RANDOM = """
import sys
from bandrec.cli import main
assert main(sys.argv[1:]) == 0
print(",".join(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"])))
"""


def test_ed_loads_no_numpy_random(tmp_path):
    # the Lanczos start is hashed from the seed with uint64 arithmetic
    args = ["ed", "--model", "single-ion", "--D", "7.4", "--sizes", "2:6", "--twist", "both"]
    assert run_python(CLI_RANDOM, *args, "--out", str(tmp_path / "ed.csv")) == ""


def test_ed_bytes_do_not_depend_on_the_thread_variables(tmp_path):
    # at L=11 (dim 25,653) a multi-threaded BLAS sums the Lanczos products in
    # another order, which moved the last digits of E0 on a 2-core machine
    args = ["ed", "--model", "single-ion", "--D", "7.4", "--sizes", "11", "--twist", "both", "--seed", "5"]
    unset, one = tmp_path / "unset.csv", tmp_path / "one.csv"
    run_python(CLI, *args, "--out", str(unset), env_update=dict.fromkeys(THREAD_VARS))
    run_python(CLI, *args, "--out", str(one), env_update={"OPENBLAS_NUM_THREADS": "1"})
    assert unset.read_bytes() == one.read_bytes()


def test_thread_default_keeps_the_user_value_and_a_loaded_numpy():
    show = f"import os; print(','.join(os.environ.get(v, '-') for v in {THREAD_VARS}))"
    unset = dict.fromkeys(THREAD_VARS)
    assert run_python("import bandrec; " + show, env_update=unset) == "1,1,1"
    user = {**unset, "OPENBLAS_NUM_THREADS": "2"}
    assert run_python("import bandrec; " + show, env_update=user) == "2,1,1"
    late = "import os, numpy; before = dict(os.environ); import bandrec; print(os.environ == before)"
    assert run_python(late, env_update=unset) == "True"
