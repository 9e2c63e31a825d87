"""Closed-form oracles: small inputs whose factorizations a theorem counts,
checked against the theorem rather than against another library.

References: S. Lang, *Algebra*, ch. VI §3 (cyclotomic polynomials over Q);
R. Lidl and H. Niederreiter, *Finite Fields*, Thm. 2.47 (cyclotomic
polynomials over F_q).
"""

import math

import pytest

from valext.fields import FieldTower
from valext.poly import Polynomial, factor

_N = range(1, 13)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _order(p, n):
    """The multiplicative order of p modulo n, for p prime to n."""
    k, power = 1, p % n
    while power != 1 % n:
        k, power = k + 1, power * p % n
    return k


def _cyclotomic(n):
    """The integer coefficients of Phi_n, constant term first: y^n - 1
    divided by Phi_d for every proper divisor d of n, each division exact in
    Z[y] since every Phi_d is monic."""
    out = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        divisor = _cyclotomic(d)
        degree = len(divisor) - 1
        quotient = [0] * (len(out) - degree)
        for k in range(len(quotient) - 1, -1, -1):
            c = quotient[k] = out[k + degree]
            for j, b in enumerate(divisor):
                out[k + j] -= c * b
        assert not any(out)
        out = quotient
    return out


def _factor_degrees(coeffs, tower):
    fac = factor(Polynomial.from_coeffs(tower, "y", coeffs))
    assert all(m == 1 for _, m in fac.factors)
    return sorted(g.degree() for g, _ in fac.factors)


@pytest.mark.parametrize("n", _N)
def test_y_n_minus_1_over_q_has_one_factor_per_divisor(n):
    """Over Q, y^n - 1 is the product of Phi_d over d | n, and each Phi_d is
    irreducible of degree phi(d): d(n) factors, of degrees phi(d)."""
    rationals = FieldTower.rationals()
    got = _factor_degrees([-1] + [0] * (n - 1) + [1], rationals)
    assert got == sorted(_phi(d) for d in _divisors(n))


@pytest.mark.parametrize("n", _N)
def test_y_n_minus_1_over_q_i_splits_phi_d_when_4_divides_d(n):
    """Over Q(i), Phi_d stays irreducible unless i lies in Q(zeta_d), that is
    unless 4 | d, and then it splits into two factors of degree phi(d)/2,
    since Q(zeta_d) has degree phi(d)/2 over Q(i): y^n - 1 has the sum over
    d | n of (2 if 4 | d else 1) factors.  For example y^4 + 1 = (y^2 - i)(y^2
    + i)."""
    q_i = FieldTower.rationals().extend_algebraic("i", [1, 0, 1])
    got = _factor_degrees([-1] + [0] * (n - 1) + [1], q_i)
    expected = []
    for d in _divisors(n):
        expected += [_phi(d) // 2] * 2 if d % 4 == 0 else [_phi(d)]
    assert got == sorted(expected)
    if n == 8:
        fac = factor(Polynomial.parse("y^4 + 1", q_i, ("y",)))
        assert str(fac) == "(y^2 - i) * (y^2 + i)"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_phi_n_over_f_p_splits_by_the_order_of_p(p):
    """Over F_p with p prime to n, Phi_n is the product of phi(n)/ord_n(p)
    distinct irreducibles of degree ord_n(p), ord_n(p) the multiplicative
    order of p modulo n."""
    field = FieldTower.prime_field(p)
    for n in _N:
        if n % p == 0:
            continue
        k = _order(p, n)
        coeffs = [c % p for c in _cyclotomic(n)]
        assert _factor_degrees(coeffs, field) == [k] * (_phi(n) // k), n
