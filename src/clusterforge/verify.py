"""Cross-check battery shared by the CLI verify subcommand and the tests.

Every check compares two independent computations of the same object or
asserts a structural invariant that must hold for any framed quiver.
"""

from __future__ import annotations

from . import intmat
from .closedform import fpoly_formula, fpoly_product_form
from .cmatrix import _nonzeros, _row_times, _step_rows, check_sign_coherence, trace
from .errors import ConsistencyError, InexactDivision
from .quiver import GeneralizedQuiver, fpoly_recurrence
from .stabilization import deform, fundamentals


def run_verification(q: GeneralizedQuiver, seq) -> dict[str, bool]:
    """Run all cross-method checks for one quiver and sequence.

    Shared work is done once: one trace, which also gives the degree bound
    of F_n, and one run of the recurrence.  The routes that check each
    other stay independent: F_n by the recurrence, the closed formula and
    the product form, and `deform` inverts C_n itself instead of reading
    C_n^{-1} off the trace.  The fundamental identity reads the vertex
    labels by point queries on the closed formula, so it checks the
    formula; "formula equals recurrence" is the cross-method check.
    """
    seq = tuple(seq)
    n = len(seq)
    results: dict[str, bool] = {}

    try:
        tr = trace(q, seq)
        results["cmatrix product matches simulation"] = True
    except ConsistencyError:
        results["cmatrix product matches simulation"] = False
        return results

    report = check_sign_coherence(tr)
    results["sign coherence and unit determinants"] = report.ok

    ident = intmat.identity(tr.v)

    def involution(row, k):  # S is the identity outside row k, so S*S = I is row * S = e_k
        return _row_times(_nonzeros(row), ident[:k] + (tuple(row),) + ident[k + 1:]) == ident[k]

    def step_rows(b, k, color):  # A_i of step i's color; E_i and E*_i, the E-kind of both
        sign = 1 if color == "green" else -1
        a_row, e_row = _step_rows(b, k, sign)
        return a_row, e_row, _step_rows(b, k, -sign)[1]

    results["step matrices are involutions"] = all(
        involution(row, vertex - 1)
        for b, vertex, color in zip(tr.b_mats, seq, tr.colors)
        for row in step_rows(b, vertex - 1, color)
    )

    results["symmetrizer preserved"] = all(
        q.d[i] * b[i][j] == -q.d[j] * b[j][i]
        for b in tr.b_mats for i in range(tr.v) for j in range(tr.v)
    )

    try:  # InexactDivision unless each F_i is a positive polynomial with constant 1
        fs = fpoly_recurrence(q, seq)
        results["recurrence yields positive unit-constant polynomials"] = True
    except InexactDivision:
        results["recurrence yields positive unit-constant polynomials"] = False
        return results
    f_n = fs[-1] if fs else None

    expected = 1 if f_n is None else f_n
    results["formula equals recurrence"] = fpoly_formula(tr, n) == expected
    results["product form equals recurrence"] = fpoly_product_form(tr, n) == expected

    if f_n is not None:  # positive coefficients make the max-plus bound exact
        results["support within degree bounds"] = (
            f_n.degree_vector() == tr.degree_bound(n)
        )

    if n and all(color == "green" for color in tr.colors):
        s_n = deform(f_n, tr.c_mats[n])
        results["green deformation is a polynomial"] = s_n.is_polynomial()
        results["green r-monomials pairwise distinct"] = (
            len(set(tr.r_monomials)) == n
        )
        results["fundamental coefficient identity"] = all(
            e.coefficient_check is not False for e in fundamentals(tr, n)
        )

    return results
