"""Cross-check battery shared by the CLI verify subcommand and the tests.

Every check compares two independent computations of the same object or
asserts a structural invariant that must hold for any framed quiver.
"""

from __future__ import annotations

from . import intmat
from .closedform import fpoly_formula, fpoly_product_form
from .cmatrix import _step_times, check_sign_coherence, step_matrix, trace
from .errors import ConsistencyError
from .quiver import GeneralizedQuiver, _degree_bounds_from_trace, fpoly_recurrence
from .stabilization import deform, fundamentals, is_polynomial


def run_verification(q: GeneralizedQuiver, seq) -> dict[str, bool]:
    """Run all cross-method checks for one quiver and sequence.

    Shared work is done once: one trace, which also gives the degree bound
    of F_n, and one run of the recurrence, whose labels the fundamental
    identity reads.  The routes that check each other stay independent:
    F_n by the recurrence, the closed formula and the product form, and
    `deform` inverts C_n itself instead of reading C_n^{-1} off the trace.
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

    def involution(m, k):  # S is the identity outside row k, so S*S is one row update
        return m[:k] + m[k + 1:] == ident[:k] + ident[k + 1:] and _step_times(m[k], k, m) == ident

    # A_i is the A-kind of step i's color; E_i and E*_i are the E-kind of both colors
    results["step matrices are involutions"] = all(
        involution(step_matrix(b, vertex, kind, variant), vertex - 1)
        for b, vertex, color in zip(tr.b_mats, seq, tr.colors)
        for kind, variant in (("a", color), ("e", "green"), ("e", "red"))
    )

    results["symmetrizer preserved"] = all(
        q.d[i] * b[i][j] == -q.d[j] * b[j][i]
        for b in tr.b_mats for i in range(tr.v) for j in range(tr.v)
    )

    fs = fpoly_recurrence(q, seq)
    f_n = fs[-1] if fs else None
    results["recurrence yields positive unit-constant polynomials"] = all(
        f.is_polynomial() and f.constant_term == 1
        and all(c > 0 for c in f.terms.values())
        for f in fs
    )

    expected = 1 if f_n is None else f_n
    results["formula equals recurrence"] = fpoly_formula(tr, n) == expected
    results["product form equals recurrence"] = fpoly_product_form(tr, n) == expected

    if f_n is not None:
        bound = _degree_bounds_from_trace(tr, n)
        results["support within degree bounds"] = all(
            all(e <= b for e, b in zip(exps, bound)) for exps in f_n.terms
        )

    if n and all(color == "green" for color in tr.colors):
        s_n = deform(f_n, tr.c_mats[n])
        results["green deformation is a polynomial"] = is_polynomial(s_n)[0]
        results["green r-monomials pairwise distinct"] = (
            len(set(tr.r_monomials)) == n
        )
        fset = fundamentals(tr, n, fs=fs)
        results["fundamental coefficient identity"] = all(
            e.coefficient_check is not False for e in fset.entries
        )

    return results
