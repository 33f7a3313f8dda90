import numpy as np
import pytest

from bandrec import Twist, ValidationError, b_coefficients, moebius_table, numtheory
from bandrec.cli import main


def brute_moebius(n: int) -> int:
    """Independent oracle: factor by trial division, apply the definition."""
    if n == 1:
        return 1
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        else:
            d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


class TestMoebius:
    @pytest.mark.parametrize("n,expected", [(1, 1), (4, 0), (6, 1)])
    def test_spec_examples(self, n, expected):
        assert moebius_table(n)[0][n - 1] == expected

    def test_against_brute_force(self):
        mu, _ = moebius_table(499)
        assert mu.tolist() == [brute_moebius(n) for n in range(1, 500)]

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            moebius_table(0)

    def test_divisor_identity(self):
        # sum of mu over divisors vanishes except at n = 1
        N = 10**4
        mu, _ = moebius_table(N)
        sums = np.zeros(N + 1, dtype=np.int64)
        for d in range(1, N + 1):
            sums[d::d] += mu[d - 1]
        assert sums[1] == 1
        assert not sums[2:].any()


class TestMertens:
    @pytest.mark.parametrize("x,expected", [(1, 1), (2, 0), (5, -2)])
    def test_spec_examples(self, x, expected):
        # mertens(5) = -2 by direct summation of mu(1..5) = 1,-1,-1,0,-1
        assert moebius_table(x)[1][x - 1] == expected

    def test_difference_is_moebius(self):
        mu, mert = moebius_table(10**4)
        assert (np.diff(mert) == mu[1:]).all()

    def test_table_is_cumsum_of_moebius(self):
        mu, mert = moebius_table(5000)
        assert mu.tolist() == [brute_moebius(n) for n in range(1, 5001)]
        assert (mert == np.cumsum(mu)).all()
        assert mu.dtype == mert.dtype == np.int64
        assert not mu.flags.writeable and not mert.flags.writeable

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            moebius_table(-3)


def test_module_holds_no_tables_between_calls():
    # every call sieves afresh: no module-level container, no shared arrays
    state = [
        name
        for name, value in vars(numtheory).items()
        if not name.startswith("__") and isinstance(value, (np.ndarray, list, dict, set))
    ]
    assert state == []
    public = sorted(
        name
        for name, value in vars(numtheory).items()
        if callable(value) and not name.startswith("_")
        and getattr(value, "__module__", None) == numtheory.__name__
    )
    assert public == ["b_coefficients", "moebius_table"]
    (mu1, mert1), (mu2, mert2) = moebius_table(50), moebius_table(50)
    assert not np.shares_memory(mu1, mu2) and not np.shares_memory(mert1, mert2)
    assert not np.shares_memory(b_coefficients(Twist.PBC, 50), b_coefficients(Twist.PBC, 50))


def materialize_g(twist: Twist, size: int) -> np.ndarray:
    """The aliasing matrix: entry (M, m) is q^l when m = l*M, else 0."""
    G = np.zeros((size, size), dtype=np.int64)
    q = twist.q
    for M in range(1, size + 1):
        sign = q
        for m in range(M, size + 1, M):
            G[M - 1, m - 1] = sign
            sign *= q
    return G


def materialize_inverse(b: np.ndarray, size: int) -> np.ndarray:
    """Matrix with entry (i, j) = b(j/i) when i divides j, else 0."""
    B = np.zeros((size, size), dtype=np.int64)
    for i in range(1, size + 1):
        for j in range(i, size + 1, i):
            B[i - 1, j - 1] = b[j // i - 1]
    return B


class TestBCoefficients:
    def test_spec_examples(self):
        assert b_coefficients(Twist.PBC, 4).tolist() == [1, -1, -1, 0]
        assert b_coefficients(Twist.ABC, 3).tolist() == [-1, -1, 1]
        assert b_coefficients(Twist.ABC, 1).tolist() == [-1]

    def test_abc_3_against_matrix_inverse_oracle(self):
        # invert the 3x3 aliasing matrix with q = -1 directly
        G = materialize_g(Twist.ABC, 3).astype(float)
        inv = np.linalg.inv(G)
        assert np.allclose(inv[0], [-1, -1, 1])
        assert b_coefficients(Twist.ABC, 3).tolist() == [-1, -1, 1]

    def test_first_value(self):
        assert b_coefficients(Twist.PBC, 1)[0] == 1
        assert b_coefficients(Twist.ABC, 1)[0] == -1

    def test_pbc_equals_moebius(self):
        b = b_coefficients(Twist.PBC, 10**4)
        assert b.tolist() == [brute_moebius(n) for n in range(1, 10**4 + 1)]

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_magnitude_bound(self, twist):
        b = b_coefficients(twist, 2000)
        assert (np.abs(b) <= np.arange(1, 2001)).all()

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    @pytest.mark.parametrize("size", [1, 2, 3, 8, 17, 64])
    def test_inverse_property_exact_integers(self, twist, size):
        G = materialize_g(twist, size)
        B = materialize_inverse(b_coefficients(twist, size), size)
        assert (B @ G == np.eye(size, dtype=np.int64)).all()

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            b_coefficients(Twist.PBC, 0)

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_prefix_does_not_depend_on_m(self, twist):
        # convergence_curve slices the weights of its largest cutoff
        assert b_coefficients(twist, 7).tolist() == b_coefficients(twist, 5000)[:7].tolist()

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_rejects_writes(self, twist):
        b = b_coefficients(twist, 10)
        assert b.dtype == np.int64
        with pytest.raises(ValueError):
            b[0] = 7


def recursive_weights(twist: Twist, M: int) -> list[int]:
    """Reference: b(1) = q, b(j) = -q * sum over proper divisors m of j of q^(j/m) b(m)."""
    q = twist.q
    b = [0, q]
    for j in range(2, M + 1):
        acc = sum(q ** ((j // m) & 1) * b[m] for m in range(1, j // 2 + 1) if j % m == 0)
        b.append(-q * acc)
    return b[1:]


class TestClosedFormWeights:
    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_equals_recursive_definition(self, twist):
        assert b_coefficients(twist, 2000).tolist() == recursive_weights(twist, 2000)

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_inverse_identity_at_ten_thousand(self, twist):
        # sum_{m | j} q^(j/m) b(m) = delta_{1j} for every j <= M, in exact integers
        M = 10**4
        b = b_coefficients(twist, M)
        acc = np.zeros(M + 1, dtype=np.int64)
        for m in range(1, M + 1):
            l = np.arange(1, M // m + 1)
            acc[m * l] += np.where(l % 2 == 1, twist.q, 1) * b[m - 1]
        assert acc[1] == 1
        assert not acc[2:].any()


class TestKernelCommand:
    def test_rows_match_the_independent_references(self, capsys):
        M = 2000
        assert main(["kernel", "--max", str(M)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,moebius,mertens,b_pbc,b_abc"
        mu = [brute_moebius(n) for n in range(1, M + 1)]
        expected = zip(
            range(1, M + 1),
            mu,
            np.cumsum(mu).tolist(),
            recursive_weights(Twist.PBC, M),
            recursive_weights(Twist.ABC, M),
        )
        assert lines[1:] == [",".join(map(str, row)) for row in expected]

    def test_nonpositive_max_exits_2(self, capsys):
        assert main(["kernel", "--max", "0"]) == 2
        assert capsys.readouterr().out == ""
