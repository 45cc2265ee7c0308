"""Gaussian tail probability (Q-function) and its inverse.

q_inv is the normal quantile of the Cephes Math Library (``ndtri``,
Stephen L. Moshier), ported to pure Python from the copy that SciPy ships
under its BSD-3 licence: the same three branches, coefficient tables,
Horner order and ``math.log``/``math.sqrt`` calls, so every result is
bit-identical to ``0.0 - scipy.special.ndtri(eps)`` while importing this
package loads no SciPy.  The test ``test_q_inv_bit_identical_to_scipy_ndtri``
in ``tests/test_qfunc.py`` checks that parity by int64 view.
"""

import math

_SQRT2 = math.sqrt(2.0)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# P0/Q0: approximation for 0 <= |y - 0.5| <= 3/8.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (  # leading 1.0 implicit
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# P1/Q1: z = sqrt(-2 log y) between 2 and 8, i.e. exp(-32) < y < exp(-2).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (  # leading 1.0 implicit
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# P2/Q2: z between 8 and 64, i.e. y down to exp(-2048), below every double.
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (  # leading 1.0 implicit
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _tail_ratio(z, p, q):
    """z * polevl(z, p, 8) / p1evl(z, q, 8), unrolled in Cephes' order."""
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = p
    q0, q1, q2, q3, q4, q5, q6, q7 = q
    num = ((((p0 * z + p1) * z + p2) * z + p3) * z + p4) * z + p5
    num = ((num * z + p6) * z + p7) * z + p8
    den = ((((z + q0) * z + q1) * z + q2) * z + q3) * z + q4
    den = ((den * z + q5) * z + q6) * z + q7
    return z * num / den


def _ndtri(y):
    """Cephes ndtri: the x with Phi(x) = y, for a float 0 < y < 1."""
    upper = y > 1.0 - 0.13533528323661269189  # exp(-2)
    if upper:
        y = 1.0 - y
    if y > 0.13533528323661269189:
        p0, p1, p2, p3, p4 = _P0
        q0, q1, q2, q3, q4, q5, q6, q7 = _Q0
        y = y - 0.5
        y2 = y * y
        num = (((p0 * y2 + p1) * y2 + p2) * y2 + p3) * y2 + p4
        den = ((((y2 + q0) * y2 + q1) * y2 + q2) * y2 + q3) * y2 + q4
        den = ((den * y2 + q5) * y2 + q6) * y2 + q7
        return (y + y * (y2 * num / den)) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    x = x0 - (_tail_ratio(z, _P1, _Q1) if x < 8.0 else _tail_ratio(z, _P2, _Q2))
    return x if upper else -x


def q_func(x: float) -> float:
    """Upper-tail probability P[Z > x] of a standard normal Z.

    Strictly decreasing in x, with q_func(0) = 0.5.  Computed through the
    complementary error function, Q(x) = erfc(x / sqrt(2)) / 2, which stays
    accurate deep into the tail (x ~ 40 still resolves).
    """
    return 0.5 * math.erfc(x / _SQRT2)


def q_inv(eps: float) -> float:
    """Inverse of q_func: the threshold x with P[Z > x] = eps.

    Valid for 0 < eps < 1 only; the quantile diverges at both endpoints.
    Round-trip accuracy q_func(q_inv(eps)) vs eps is a few ulp, orders of
    magnitude tighter than any solver tolerance built on top of it.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"q_inv requires 0 < eps < 1, got {eps!r}")
    return 0.0 - _ndtri(float(eps))
