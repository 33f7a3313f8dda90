"""Reference answers for the benchmark's correctness checks.

Nothing here imports `bandrec`: the spin-chain energies come from Kronecker
products of single-site spin matrices (small sizes) or from pinned values
computed by `pin_references.py` with an independent sector ED; the
number-theory and inversion checks solve the defining identities directly.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: largest full Hilbert-space dimension built by Kronecker products at run time
KRON_MAX_DIM = 2**14
#: energies must match the oracle to this absolute tolerance
ENERGY_TOL = 1e-9
#: reconstructed cosine coefficients must match the seeded band to this tolerance
COEFF_TOL = 1e-9

# ----------------------------------------------------------------------------
# spin chains


def spin_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """S^z and S^+ of one spin-(d-1)/2 site, levels ordered by ascending m."""
    s = (d - 1) / 2.0
    m = np.arange(d) - s
    sp = np.zeros((d, d))
    for lvl in range(d - 1):
        sp[lvl + 1, lvl] = math.sqrt(s * (s + 1) - m[lvl] * (m[lvl] + 1))
    return np.diag(m), sp


def _site_op(op, site: int, L: int, d: int):
    from scipy import sparse

    return sparse.kron(
        sparse.kron(sparse.identity(d**site, format="csr"), sparse.csr_matrix(op)),
        sparse.identity(d ** (L - site - 1), format="csr"),
        format="csr",
    )


def kron_ground_energy(d: int, L: int, J: float, D: float, twist: str) -> float:
    """Lowest S^z=0 energy of the ring sum_b J [SzSz + s_b/2 (S+S- + S-S+)] + J D sum Sz^2.

    Bonds are (b, b+1 mod L) for b = 0..L-1 (two bonds for L=2); the
    antiperiodic twist sets s_{L-1} = -1 on the transverse part.
    """
    from scipy.linalg import eigvalsh
    from scipy.sparse.linalg import eigsh

    sz, sp = spin_matrices(d)
    Sz = [_site_op(sz, i, L, d) for i in range(L)]
    Sp = [_site_op(sp, i, L, d) for i in range(L)]
    H = 0
    for b in range(L):
        i, j = b, (b + 1) % L
        sign = -1.0 if (twist == "abc" and b == L - 1) else 1.0
        H = H + J * (Sz[i] @ Sz[j]) + 0.5 * J * sign * (Sp[i] @ Sp[j].T + Sp[i].T @ Sp[j])
    if D:
        for i in range(L):
            H = H + J * D * (Sz[i] @ Sz[i])
    total_sz = np.asarray(sum(S.diagonal() for S in Sz))
    keep = np.flatnonzero(np.abs(total_sz) < 1e-9)
    Hs = H.tocsr()[keep][:, keep]
    if keep.size <= 1500:
        return float(eigvalsh(Hs.toarray())[0])
    v0 = np.ones(keep.size) / math.sqrt(keep.size)
    return float(eigsh(Hs, k=1, which="SA", tol=1e-14, v0=v0)[0][0])


def load_references() -> dict:
    """Pinned ground energies: {model: {twist: {L: E0}}}."""
    with open(REFERENCES) as fh:
        raw = json.load(fh)
    return {
        model: {tw: {int(L): float(E) for L, E in rows.items()} for tw, rows in twists.items()}
        for model, twists in raw["energies"].items()
    }


class EnergyOracle:
    """Reference E0 for one model: Kronecker products where small, pinned above."""

    def __init__(self, model: str, d: int, J: float, D: float):
        self.d, self.J, self.D = d, J, D
        self.pinned = load_references().get(model, {})
        self._cache: dict[tuple[int, str], float] = {}

    def energy(self, L: int, twist: str) -> float:
        key = (L, twist)
        if key not in self._cache:
            if self.d**L <= KRON_MAX_DIM:
                self._cache[key] = kron_ground_energy(self.d, L, self.J, self.D, twist)
            else:
                self._cache[key] = self.pinned[twist][L]
        return self._cache[key]


def read_energy_rows(path) -> tuple[dict, dict[tuple[int, str], float]]:
    """Metadata comments and (L, twist) -> E_total rows of an energy CSV."""
    meta, rows = {}, {}
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    body = []
    for ln in lines:
        if ln.startswith("#"):
            key, _, value = ln[1:].partition("=")
            meta[key.strip()] = value.strip()
        else:
            body.append(ln)
    if not body or body[0] != "L,twist,E_total":
        raise ValueError(f"bad energy CSV header in {path}")
    for ln in body[1:]:
        L, tw, E = ln.split(",")
        rows[(int(L), tw)] = float(E)
    return meta, rows


def check_energies(rows, oracle: EnergyOracle, sizes, twists) -> list[str]:
    errors = []
    expected = {(L, tw) for L in sizes for tw in twists}
    if set(rows) != expected:
        errors.append(f"rows {sorted(rows)} differ from requested {sorted(expected)}")
    for (L, tw), E in sorted(rows.items()):
        if (L, tw) in expected:
            ref = oracle.energy(L, tw)
            if not abs(E - ref) <= ENERGY_TOL:
                errors.append(f"E0(L={L},{tw})={E!r} differs from reference {ref!r}")
    return errors


# ----------------------------------------------------------------------------
# number theory


def moebius_table(M: int) -> np.ndarray:
    """mu(0..M) by a plain sieve (mu[0] unused)."""
    mu = np.ones(M + 1, dtype=np.int64)
    mu[0] = 0
    is_prime = np.ones(M + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, M + 1):
        if is_prime[p]:
            is_prime[2 * p :: p] = False
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    return mu


def divisor_identity_defect(b: np.ndarray, q: int) -> np.ndarray:
    """G_j = sum_{m | j} q^(j/m) b(m) - delta_{1j} for j = 1..M (b is 1-indexed by position 0)."""
    M = b.size
    G = np.zeros(M + 1, dtype=np.int64)
    for m in range(1, M + 1):
        ks = np.arange(1, M // m + 1)
        G[m * ks] += b[m - 1] * np.where(ks % 2, q, 1)
    G[1] -= 1
    return G[1:]


def check_kernel(path, M: int) -> list[str]:
    lines = Path(path).read_text().split()
    if not lines or lines[0] != "n,moebius,mertens,b_pbc,b_abc":
        return [f"bad kernel header in {path}"]
    table = np.array([[int(x) for x in ln.split(",")] for ln in lines[1:]], dtype=np.int64)
    if table.shape != (M, 5) or not np.array_equal(table[:, 0], np.arange(1, M + 1)):
        return [f"kernel table has shape {table.shape}, expected rows n=1..{M}"]
    _, mu, mertens, b_pbc, b_abc = table.T
    errors = []
    if not np.array_equal(mu, moebius_table(M)[1:]):
        errors.append("moebius column differs from the sieve")
    if not np.array_equal(mertens, np.cumsum(mu)):
        errors.append("mertens column is not cumsum(moebius)")
    for name, b, q in (("b_pbc", b_pbc, 1), ("b_abc", b_abc, -1)):
        bad = np.flatnonzero(divisor_identity_defect(b, q))
        if bad.size:
            errors.append(f"{name} violates B.G = 1 first at j={bad[0] + 1}")
    return errors


# ----------------------------------------------------------------------------
# bands, Riemann sums and the inversion


def aliasing_sums(c0: float, coeffs: np.ndarray, sizes, q: int) -> np.ndarray:
    """S_L = c0 + sum_{l>=1} q^l a_{lL} of a cosine series."""
    out = []
    for L in sizes:
        tail = coeffs[L - 1 :: L]
        out.append(c0 + float(np.sum(tail * float(q) ** np.arange(1, tail.size + 1))))
    return np.array(out)


def massive_sine(k, m: float) -> np.ndarray:
    return np.sqrt(np.sin(np.asarray(k) / 2.0) ** 2 + m * m)


def massive_sine_mean(m: float) -> float:
    """Band mean by the trapezoid rule, exponentially accurate for m > 0."""
    k = 2.0 * np.pi * np.arange(2**16) / 2**16
    return float(np.mean(massive_sine(k, m)))


def twisted_mean(m: float, L: int, q: int) -> float:
    theta = 0.0 if q == 1 else np.pi
    return float(np.mean(massive_sine((2.0 * np.pi * np.arange(L) + theta) / L, m)))


def invert_triangular(R: np.ndarray, q: int) -> np.ndarray:
    """Solve R_L = sum_{l>=1} q^l a_{lL}, L = 1..M, for a_1..a_M (a_n = 0 above M)."""
    from scipy.linalg import solve_triangular

    M = R.size
    A = np.zeros((M, M))
    for L in range(1, M + 1):
        ls = np.arange(1, M // L + 1)
        A[L - 1, ls * L - 1] = float(q) ** ls
    return solve_triangular(A, R, lower=False)


@functools.cache
def convergence_errors(m: float, cutoffs: tuple[int, ...], q: int, grid: int = 4096) -> dict[int, float]:
    """Squared L2 error of the size-1..L reconstruction of the massive sine band."""
    k = 2.0 * np.pi * np.arange(grid) / grid
    exact = massive_sine(k, m)
    c0 = massive_sine_mean(m)
    Lmax = max(cutoffs)
    R = np.array([twisted_mean(m, L, q) for L in range(1, Lmax + 1)]) - c0
    out = {}
    for L in cutoffs:
        a = invert_triangular(R[:L], q)
        approx = c0 + np.cos(np.multiply.outer(k, np.arange(1, L + 1))) @ a
        out[L] = float(np.sum((approx - exact) ** 2) * 2.0 * np.pi / grid)
    return out


def check_convergence(path, reference: dict[int, float]) -> list[str]:
    lines = Path(path).read_text().split()
    if not lines or lines[0] != "L,l2_sq_error":
        return [f"bad convergence header in {path}"]
    got = {int(a): float(b) for a, b in (ln.split(",") for ln in lines[1:])}
    if set(got) != set(reference):
        return [f"convergence cutoffs {sorted(got)} differ from {sorted(reference)}"]
    return [
        f"convergence error at L={L}: {got[L]!r} vs reference {ref!r}"
        for L, ref in sorted(reference.items())
        if not abs(got[L] - ref) <= 1e-6 * abs(ref) + 1e-20
    ]


def check_series(path, expected: dict[tuple[int, str], float], e_inf: float | None) -> list[str]:
    """An energy CSV against expected totals, to 1e-12 relative to the scale of the data."""
    meta, rows = read_energy_rows(path)
    if set(rows) != set(expected):
        return [f"rows {len(rows)} differ from the {len(expected)} expected"]
    scale = max(1.0, max(abs(v) for v in expected.values()))
    errors = [
        f"E(L={L},{tw})={rows[(L, tw)]!r} vs reference {E!r}"
        for (L, tw), E in sorted(expected.items())
        if not abs(rows[(L, tw)] - E) <= 1e-12 * scale
    ]
    if e_inf is not None and not abs(float(meta.get("e_inf", "nan")) - e_inf) <= 1e-10:
        errors.append(f"e_inf metadata {meta.get('e_inf')} vs reference {e_inf!r}")
    return errors


def check_round_trip(path, statistics: str, twist: str, coeffs: np.ndarray) -> list[str]:
    """The matched hypothesis must return the seeded band's cosine coefficients."""
    entries = json.loads(Path(path).read_text())
    entries = entries if isinstance(entries, list) else [entries]
    matched = [
        e for e in entries
        if e["hypothesis"] == {"statistics": statistics, "twist": twist}
    ]
    if len(matched) != 1:
        return [f"expected one {statistics}-{twist} reading, found {len(matched)}"]
    got = np.asarray(matched[0]["coeffs"], dtype=float)
    if got.shape != coeffs.shape:
        return [f"matched reading has {got.size} coefficients, expected {coeffs.size}"]
    worst = float(np.max(np.abs(got - coeffs)))
    if not worst <= COEFF_TOL:
        return [f"matched coefficients deviate by {worst:.3g} from the seeded band"]
    return []


def check_admissible_pair(path, pair=("boson-pbc", "fermion-abc")) -> list[str]:
    entries = json.loads(Path(path).read_text())
    admitted = sorted(
        f"{e['hypothesis']['statistics']}-{e['hypothesis']['twist']}"
        for e in entries if e["admissible"]
    )
    if len(entries) != 4 or admitted != sorted(pair):
        return [f"admissible readings {admitted}, expected {sorted(pair)}"]
    return []


def check_criterion(path, csv_path) -> list[str]:
    """Doubling defects of quasi-free data: recomputed from the input, at rounding level."""
    report = json.loads(Path(path).read_text())
    _, rows = read_energy_rows(csv_path)
    expected = {
        L: rows[(2 * L, "pbc")] - rows[(L, "pbc")] - rows[(L, "abc")]
        for (L, tw) in rows
        if tw == "pbc" and (2 * L, "pbc") in rows
    }
    got = {int(L): float(v) for L, v in report["per_L_defect"].items()}
    if set(got) != set(expected):
        return [f"criterion sizes {sorted(got)} differ from {sorted(expected)}"]
    errors = []
    for L, ref in sorted(expected.items()):
        scale = abs(rows[(2 * L, "pbc")])
        if not abs(got[L] - ref) <= 1e-13 * scale or not abs(got[L]) <= 1e-12 * scale:
            errors.append(f"doubling defect at L={L}: {got[L]!r} (recomputed {ref!r})")
    if not report["max_relative_defect"] <= 1e-12:
        errors.append(f"max_relative_defect {report['max_relative_defect']!r} above rounding")
    return errors
