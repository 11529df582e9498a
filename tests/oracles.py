"""Independent oracles for the tests, built from integers and binomials only.

The greedy recursion of Lee, Li and Zelevinsky ("Greedy elements in rank 2
cluster algebras", Selecta Math. 2014, arXiv:1208.2391) gives the
coefficients of rank-2 cluster variables with no C-matrices, traces or
Laurent division: c(0, 0) = 1, and c(p, q) is the larger of

    sum_{k=1..p} (-1)^(k-1) c(p-k, q) C([a2 - c*q]_+ + k - 1, k)
    sum_{k=1..q} (-1)^(k-1) c(p, q-k) C([a1 - b*p]_+ + k - 1, k).
"""

from math import comb


def greedy_coefficients(a1: int, a2: int, b: int, c: int) -> dict[tuple[int, int], int]:
    """The nonzero c(p, q) for 0 <= p <= a2 and 0 <= q <= a1."""
    table = {(0, 0): 1}
    for p in range(a2 + 1):
        for q in range(a1 + 1):
            if p or q:
                down, left = max(a2 - c * q, 0) - 1, max(a1 - b * p, 0) - 1
                table[p, q] = max(
                    sum((-1) ** (k - 1) * table[p - k, q] * comb(down + k, k)
                        for k in range(1, p + 1) if table[p - k, q]),
                    sum((-1) ** (k - 1) * table[p, q - k] * comb(left + k, k)
                        for k in range(1, q + 1) if table[p, q - k]))
    return {key: value for key, value in table.items() if value}


def greedy_fpoly(a1: int, a2: int, b: int, c: int) -> dict[tuple[int, int], int]:
    """The F-polynomial terms {(a1 - q, p): c(p, q)} of the greedy element at (a1, a2)."""
    return {(a1 - q, p): value for (p, q), value in greedy_coefficients(a1, a2, b, c).items()}
