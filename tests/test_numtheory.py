import sys
import threading

import numpy as np
import pytest

from bandrec import BCoefficients, Twist, ValidationError, b_coefficients, divisors, mertens, moebius
from bandrec import numtheory


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
        assert moebius(n) == expected

    def test_against_brute_force(self):
        for n in range(1, 500):
            assert moebius(n) == brute_moebius(n), n

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            moebius(0)

    def test_above_sieve_bound_uses_trial_division(self):
        n = 10**6 + 3  # prime just above the default sieve bound
        assert moebius(n) == -1
        assert moebius(n * 2) == 1
        assert moebius(4 * (10**6 + 1)) == 0

    def test_large_argument_allocates_no_sieve(self, monkeypatch):
        def no_sieve(n):
            raise AssertionError(f"sieve of size {n} requested")

        monkeypatch.setattr(numtheory, "_sieve", no_sieve)
        n = 4 * (10**6 + 1)  # 2^2 * 101 * 9901
        assert moebius(n) == 0
        assert moebius(10**6 + 3) == -1
        assert divisors(n) == [1, 2, 4, 101, 202, 404, 9901, 19802, 39604,
                               1000001, 2000002, 4000004]

    def test_divisor_identity(self):
        # sum of mu over divisors vanishes except at n = 1
        N = 10**4
        sums = np.zeros(N + 1, dtype=np.int64)
        for d in range(1, N + 1):
            sums[d::d] += moebius(d)
        assert sums[1] == 1
        assert not sums[2:].any()


class TestMertens:
    @pytest.mark.parametrize("x,expected", [(1, 1), (2, 0), (5, -2)])
    def test_spec_examples(self, x, expected):
        # mertens(5) = -2 by direct summation of mu(1..5) = 1,-1,-1,0,-1
        assert mertens(x) == expected

    def test_difference_is_moebius(self):
        for x in range(2, 10**4 + 1):
            assert mertens(x) - mertens(x - 1) == moebius(x)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            mertens(0)

    def test_table_is_cumsum_of_moebius(self):
        mu, mert = numtheory.moebius_table(5000)
        assert mu.tolist() == [brute_moebius(n) for n in range(1, 5001)]
        assert (mert == np.cumsum(mu)).all()
        assert not mu.flags.writeable and not mert.flags.writeable


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected", [(1, [1]), (12, [1, 2, 3, 4, 6, 12]), (7, [1, 7])]
    )
    def test_spec_examples(self, n, expected):
        assert divisors(n) == expected

    def test_against_brute_force(self):
        for n in list(range(1, 200)) + [360, 997, 1024, 2310]:
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_sorted_with_unit_and_self(self):
        for n in (2, 30, 97, 450):
            divs = divisors(n)
            assert divs[0] == 1 and divs[-1] == n
            assert divs == sorted(divs)


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


def materialize_inverse(b: BCoefficients, size: int) -> np.ndarray:
    """Matrix with entry (i, j) = b(j/i) when i divides j, else 0."""
    B = np.zeros((size, size), dtype=np.int64)
    for i in range(1, size + 1):
        for j in range(i, size + 1, i):
            B[i - 1, j - 1] = b.value(j // i)
    return B


class TestBCoefficients:
    def test_spec_examples(self):
        assert b_coefficients(Twist.PBC, 4).values == (1, -1, -1, 0)
        assert b_coefficients(Twist.ABC, 3).values == (-1, -1, 1)
        assert b_coefficients(Twist.ABC, 1).values == (-1,)

    def test_abc_3_against_matrix_inverse_oracle(self):
        # invert the 3x3 aliasing matrix with q = -1 directly
        G = materialize_g(Twist.ABC, 3).astype(float)
        inv = np.linalg.inv(G)
        assert np.allclose(inv[0], [-1, -1, 1])
        assert b_coefficients(Twist.ABC, 3).values == (-1, -1, 1)

    def test_first_value(self):
        assert b_coefficients(Twist.PBC, 1).value(1) == 1
        assert b_coefficients(Twist.ABC, 1).value(1) == -1

    def test_pbc_equals_moebius(self):
        b = b_coefficients(Twist.PBC, 10**4)
        for n in range(1, 10**4 + 1):
            assert b.value(n) == moebius(n), n

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_magnitude_bound(self, twist):
        b = b_coefficients(twist, 2000)
        for n in range(1, 2001):
            assert abs(b.value(n)) <= n, n

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    @pytest.mark.parametrize("size", [1, 2, 3, 8, 17, 64])
    def test_inverse_property_exact_integers(self, twist, size):
        G = materialize_g(twist, size)
        B = materialize_inverse(b_coefficients(twist, size), size)
        assert (B @ G == np.eye(size, dtype=np.int64)).all()

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            b_coefficients(Twist.PBC, 0)


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
        assert list(b_coefficients(twist, 2000).values) == recursive_weights(twist, 2000)

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_inverse_identity_at_ten_thousand(self, twist):
        # sum_{m | j} q^(j/m) b(m) = delta_{1j} for every j <= M, in exact integers
        M = 10**4
        b = b_coefficients(twist, M).values
        acc = np.zeros(M + 1, dtype=np.int64)
        for m in range(1, M + 1):
            l = np.arange(1, M // m + 1)
            acc[m * l] += np.where(l % 2 == 1, twist.q, 1) * b[m - 1]
        assert acc[1] == 1
        assert not acc[2:].any()


def test_concurrent_growth_serves_complete_tables(monkeypatch):
    # readers racing the geometric regrowth must always see a whole, correct table
    monkeypatch.setattr(numtheory, "_tables", numtheory._sieve(1))
    expected_mu = [brute_moebius(n) for n in range(1, 6001)]
    expected_mertens = np.cumsum(expected_mu).tolist()
    failures = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for M in rng.integers(1, 6001, 40).tolist():
            b = b_coefficients(Twist.PBC, M).values
            if list(b) != expected_mu[:M] or mertens(M) != expected_mertens[M - 1]:
                failures.append(M)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
