"""Answer checks that share no code with reflextor.

Every function here works on plain Python data: a polynomial is a dict
mapping exponent tuples to coefficients (ints mod p, or Fractions), a
monomial is an exponent tuple.  The expected answers come from closed
forms (Tate's series, complete-intersection and Buchsbaum-Rim Hilbert
series) or from arithmetic done here (standard-monomial counts, division,
determinants mod p), never from a stored copy of the program's output.
"""

from fractions import Fraction
from math import comb


# ----------------------------------------------------------------------
# power series with integer coefficients, as lists indexed by degree


def series_mul(a, b, n):
    """First n coefficients of the product of two power series."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def inverse_one_minus(step, power, n):
    """First n coefficients of 1 / (1 - t^step)^power."""
    out = [0] * n
    if power == 0:
        out[0] = 1
        return out
    for k in range(0, (n - 1) // step + 1):
        out[k * step] = comb(power - 1 + k, k)
    return out


def tate_betti(nvars, codim, n):
    """Betti numbers of the residue field over a complete intersection.

    Tate: the Poincare series is (1+t)^nvars / (1-t^2)^codim when the
    defining ideal is generated by a regular sequence of codim forms of
    degree at least 2.
    """
    num = [comb(nvars, i) for i in range(nvars + 1)]
    return series_mul(num, inverse_one_minus(2, codim, n), n)


def laurent_from_factors(degrees):
    """Numerator prod (1 - t^d) as a {degree: coefficient} dict."""
    poly = {0: 1}
    for d in degrees:
        nxt = dict(poly)
        for e, c in poly.items():
            nxt[e + d] = nxt.get(e + d, 0) - c
        poly = {e: c for e, c in nxt.items() if c}
    return poly


def hilbert_function(numerator, nvars, n):
    """First n values of numerator(t) / (1-t)^nvars, numerator a dict."""
    out = [0] * n
    for e, c in numerator.items():
        for d in range(max(e, 0), n):
            out[d] += c * comb(nvars - 1 + d - e, d - e)
    return out


def complete_intersection_hilbert(degrees, nvars, n):
    """Hilbert function of S/(f_1..f_c), the f_i a regular sequence."""
    return hilbert_function(laurent_from_factors(degrees), nvars, n)


def buchsbaum_rim_numerator(f, g):
    """Hilbert numerator of coker of a generic f x g matrix of linear forms.

    The Buchsbaum-Rim complex resolves it when g - f + 1 <= nvars:
    G <- F(-1) <- wedge^{f+k} F (x) (S_{k-1} G)^* (-(f+k)) for k = 1..g-f,
    so the numerator over (1-t)^nvars is
    f - g t + sum_k (-1)^(k+1) C(g, f+k) C(f+k-2, k-1) t^(f+k).
    """
    num = {0: f, 1: -g}
    for k in range(1, g - f + 1):
        rank = comb(g, f + k) * comb(f + k - 2, k - 1)
        num[f + k] = num.get(f + k, 0) + (-1) ** (k + 1) * rank
    return {e: c for e, c in num.items() if c}


# ----------------------------------------------------------------------
# monomials and the grevlex order


def grevlex_key(m):
    """Sort key: larger key = larger monomial in degree-reverse-lex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def lead_monomial(poly):
    return max(poly, key=grevlex_key)


def standard_monomial_counts(leads, nvars, n):
    """Number of monomials of each degree < n outside the monomial ideal.

    The standard monomials form an order ideal, so those of degree d+1
    are among x_i * (standard monomials of degree d).
    """
    leads = list(leads)
    current = [] if any(sum(m) == 0 for m in leads) else [(0,) * nvars]
    counts = []
    for _ in range(n):
        counts.append(len(current))
        ups = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in current for i in range(nvars)}
        current = [u for u in ups if not any(divides(l, u) for l in leads)]
    return counts


def reduce_fully(poly, basis):
    """Remainder of poly (Fraction coefficients) on division by basis."""
    work = dict(poly)
    leads = [(lead_monomial(b), b) for b in basis]
    rem = {}
    while work:
        m = lead_monomial(work)
        c = work.pop(m)
        for lm, b in leads:
            if divides(lm, m):
                shift = tuple(x - y for x, y in zip(m, lm))
                factor = Fraction(c) / b[lm]
                for bm, bc in b.items():
                    if bm == lm:
                        continue
                    key = tuple(x + y for x, y in zip(bm, shift))
                    v = work.get(key, 0) - factor * bc
                    if v:
                        work[key] = v
                    else:
                        work.pop(key, None)
                break
        else:
            rem[m] = c
    return rem


def reduced_basis_problems(basis):
    """Reasons the list of polynomials is not a reduced basis (monic leads,
    no term of any element divisible by another element's lead)."""
    problems = []
    leads = [lead_monomial(b) for b in basis]
    for i, b in enumerate(basis):
        if b[leads[i]] != 1:
            problems.append(f"element {i} is not monic")
        for j, lm in enumerate(leads):
            if j != i and any(divides(lm, m) for m in b):
                problems.append(f"element {i} has a term divisible by lead {j}")
                break
    return problems


# ----------------------------------------------------------------------
# arithmetic mod p


def evaluate(poly, point, p):
    """Value of an integer-coefficient polynomial at a point mod p."""
    total = 0
    for m, c in poly.items():
        term = c
        for x, e in zip(point, m):
            if e:
                term = term * pow(x, e, p)
        total += term
    return total % p


def det_mod(matrix, p):
    """Determinant of a square integer matrix mod p, by elimination."""
    a = [[x % p for x in row] for row in matrix]
    n = len(a)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det % p
