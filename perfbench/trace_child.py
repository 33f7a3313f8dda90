"""Run one bandrec command in-process with spans around each module's public functions.

    python3 perfbench/trace_child.py SPANS.json bandrec-argument...

Needs `src` on PYTHONPATH.  The program is not modified: after import,
each traced function is replaced, in every bandrec module that holds it,
by a wrapper that records a span (key, start, end, parent).  Spans stay in
memory; on exit the per-key self times, counts and per-solve details
are written to SPANS.json.  A function missing from the program is skipped
with a note on stderr, so its metrics read zero.
"""

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

T_NUMPY = time.perf_counter() - t0
t0 = time.perf_counter()
import bandrec.cli  # noqa: E402

T_IMPORT = time.perf_counter() - t0 + T_NUMPY

# (module, attribute, span key); several functions may share a key
TRACED = [
    ("cli", "main", "cli"),
    ("spinchain", "SectorBasis.build", "spinchain.basis"),
    ("spinchain", "build_hamiltonian", "spinchain.assembly"),
    ("lanczos", "lowest_eigenpair", "lanczos"),
    ("numtheory", "b_coefficients", "numtheory.weights"),
    ("numtheory", "moebius", "numtheory.tables"),
    ("numtheory", "mertens", "numtheory.tables"),
    ("riemann", "synth_energy_series", "riemann.synth"),
    ("riemann", "riemann_sum", "riemann.sum"),
    ("bands", "cosine_series", "bands.cosine"),
    ("bands", "MassiveSineBand.mean", "bands.mean"),
    ("inversion", "invert_coefficients", "inversion.invert"),
    ("inversion", "convergence_curve", "inversion.convergence"),
    ("reconstruct", "classify", "reconstruct"),
    ("reconstruct", "reconstruct_band", "reconstruct"),
    ("reconstruct", "criterion_check", "reconstruct"),
    ("seriesio", "read_energy_csv", "seriesio.read"),
    ("seriesio", "read_band_json", "seriesio.read"),
    ("seriesio", "write_energy_csv", "seriesio.write"),
    ("seriesio", "write_band_json", "seriesio.write"),
    ("seriesio", "write_band_samples_csv", "seriesio.write"),
]


def sector_counts(d: int, L: int) -> tuple[int, int]:
    """(dim, off-diagonal entries) of the S^z=0 sector Hamiltonian of a d-level ring.

    Counted combinatorially: N(n, s) strings of n base-d digits sum to s;
    each bond and hop direction contributes one entry per state whose two
    sites can be raised and lowered.
    """
    if (L * (d - 1)) % 2:
        return 0, 0
    target = L * (d - 1) // 2
    poly = [1]
    table = {0: poly}
    for n in range(1, L + 1):
        nxt = [0] * (len(poly) + d - 1)
        for s, c in enumerate(poly):
            for digit in range(d):
                nxt[s + digit] += c
        poly = table[n] = nxt

    def N(n, s):
        return table[n][s] if 0 <= s < len(table[n]) else 0

    per_direction = sum(N(L - 2, target - a - b) for a in range(d - 1) for b in range(1, d))
    return N(L, target), 2 * L * per_direction


class Tracer:
    def __init__(self):
        self.spans = []  # [key, start, end, parent index]
        self.stack = []
        self.solves = []
        self.bases = []
        self.assemblies = []
        self.counts = defaultdict(float)
        self.current_nnz = 0

    def span(self, key, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([key, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1:3] = start, end

    def wrap(self, key, fn):
        hook = getattr(self, "on_" + key.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                return hook(fn, *args, **kwargs)
            return self.span(key, fn, *args, **kwargs)

        return wrapper

    # per-layer counts, taken at the same boundaries as the spans

    def on_lanczos(self, fn, matvec, dim, *args, **kwargs):
        first = len(self.spans)
        traced_matvec = functools.partial(self.span, "spinchain.matvec", matvec)
        result = self.span("lanczos", fn, traced_matvec, dim, *args, **kwargs)
        inner = [s for s in self.spans[first:] if s[0] == "spinchain.matvec"]
        self.solves.append({
            "dim": int(dim),
            "nnz": self.current_nnz,
            "iterations": int(result[0].iterations),
            "lanczos_s": self.spans[first][2] - self.spans[first][1],
            "matvec_calls": len(inner),
            "matvec_s": sum(s[2] - s[1] for s in inner),
        })
        return result

    def on_spinchain_basis(self, fn, *args, **kwargs):
        first = len(self.spans)
        tracemalloc.start()
        try:
            basis = self.span("spinchain.basis", fn, *args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.bases.append({
            "L": int(basis.L), "d": int(basis.local_dim), "dim": int(basis.dim),
            "peak_bytes": int(peak), "s": self.spans[first][2] - self.spans[first][1],
        })
        return basis

    def on_spinchain_assembly(self, fn, spec, L, *args, **kwargs):
        first = len(self.spans)
        ham = self.span("spinchain.assembly", fn, spec, L, *args, **kwargs)
        dim, offdiag = sector_counts(spec.model.local_dim, L)
        self.current_nnz = dim + offdiag
        self.assemblies.append({
            "L": int(L), "twist": str(spec.boundary_twist), "nnz": self.current_nnz,
            "s": self.spans[first][2] - self.spans[first][1],
        })
        return ham

    def on_riemann_sum(self, fn, *args, **kwargs):
        self.counts["riemann.sum_calls"] += 1
        return self.span("riemann.sum", fn, *args, **kwargs)

    def on_bands_cosine(self, fn, c0, coeffs, k, *args, **kwargs):
        self.counts["bands.cosine_evals"] += numpy.size(k) * numpy.size(coeffs)
        return self.span("bands.cosine", fn, c0, coeffs, k, *args, **kwargs)

    def on_inversion_invert(self, fn, *args, **kwargs):
        self.counts["inversion.invert_calls"] += 1
        return self.span("inversion.invert", fn, *args, **kwargs)

    def on_numtheory_weights(self, fn, twist, M, *args, **kwargs):
        first = len(self.spans)
        result = self.span("numtheory.weights", fn, twist, M, *args, **kwargs)
        self.counts[f"numtheory.weights_{twist}_M{M}_s"] += (
            self.spans[first][2] - self.spans[first][1]
        )
        return result

    def self_times(self):
        total = defaultdict(float)
        for key, start, end, parent in self.spans:
            total[key] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return dict(total)


def install(tracer):
    modules = [m for name, m in sys.modules.items() if name.startswith("bandrec.")]
    for modname, attr, key in TRACED:
        module = sys.modules.get("bandrec." + modname)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(name) if owner is not None else None
        if raw is None:
            print(f"trace: bandrec.{modname}.{attr} not found; its metrics read 0", file=sys.stderr)
            continue
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(tracer.wrap(key, raw.__func__)))
            continue
        wrapped = tracer.wrap(key, raw)
        for m in modules:
            for n, v in list(vars(m).items()):
                if v is raw:
                    setattr(m, n, wrapped)
        if owner_name:
            setattr(owner, name, wrapped)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = bandrec.cli.main(argv)
    report = {
        "exit": code,
        "numpy_import_s": T_NUMPY,
        "import_s": T_IMPORT,
        "run_s": time.perf_counter() - T_START,
        "self_s": tracer.self_times(),
        "counts": dict(tracer.counts),
        "solves": tracer.solves,
        "bases": tracer.bases,
        "assemblies": tracer.assemblies,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
