"""Recompute `references.json`: pinned ground energies for the ED workloads.

Each energy is the lowest eigenvalue of the S^z=0 sector matrix, assembled
here as a sparse matrix from bit/digit arithmetic (no `bandrec` code) and
solved with ARPACK.  Sizes small enough for `oracle.kron_ground_energy` are
cross-checked against it before anything is written.

    python3 perfbench/pin_references.py        # takes about a minute
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from oracle import KRON_MAX_DIM, REFERENCES, kron_ground_energy

MODELS = {
    # name: (local dim, J, D, sizes)
    "heisenberg": (2, 1.0, 0.0, range(2, 21, 2)),
    "single-ion": (3, 1.0, 7.4, range(2, 14)),
}


def sector_ground_energy(d: int, L: int, J: float, D: float, twist: str) -> float:
    codes = np.arange(d**L, dtype=np.int64)
    levels = np.stack([(codes // d**i) % d for i in range(L)])
    states = codes[levels.sum(axis=0) == L * (d - 1) // 2]
    lv = levels[:, states]
    index = np.full(d**L, -1, dtype=np.int64)
    index[states] = np.arange(states.size)
    s = (d - 1) / 2.0
    m = lv - s
    diag = sum(J * m[b] * m[(b + 1) % L] for b in range(L)) + J * D * (m**2).sum(axis=0)
    rows, cols, vals = [np.arange(states.size)], [np.arange(states.size)], [diag]
    for b in range(L):
        sign = -1.0 if (twist == "abc" and b == L - 1) else 1.0
        for up, dn in ((b, (b + 1) % L), ((b + 1) % L, b)):
            ok = np.flatnonzero((lv[up] < d - 1) & (lv[dn] > 0))
            mu, md = m[up, ok], m[dn, ok]
            amp = np.sqrt(s * (s + 1) - mu * (mu + 1)) * np.sqrt(s * (s + 1) - md * (md - 1))
            rows.append(index[states[ok] + d**up - d**dn])
            cols.append(ok)
            vals.append(0.5 * J * sign * amp)
    H = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(states.size, states.size),
    )
    if states.size <= 64:
        return float(np.linalg.eigvalsh(H.toarray())[0])
    v0 = np.ones(states.size) / math.sqrt(states.size)
    return float(eigsh(H, k=1, which="SA", tol=0, v0=v0)[0][0])


def main() -> None:
    energies: dict = {}
    for name, (d, J, D, sizes) in MODELS.items():
        for twist in ("pbc", "abc"):
            for L in sizes:
                E = sector_ground_energy(d, L, J, D, twist)
                if d**L <= KRON_MAX_DIM:
                    ref = kron_ground_energy(d, L, J, D, twist)
                    if abs(E - ref) > 1e-10:
                        raise SystemExit(f"{name} L={L} {twist}: sector {E!r} vs Kronecker {ref!r}")
                energies.setdefault(name, {}).setdefault(twist, {})[str(L)] = E
                print(name, twist, L, repr(E), flush=True)
    payload = {
        "about": "lowest S^z=0 energies; J=1, single-ion D=7.4; written by pin_references.py",
        "energies": energies,
    }
    REFERENCES.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
