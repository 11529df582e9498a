"""CLI output pinned byte for byte against files in tests/golden/.

Each case is one `clusterforge` invocation; its exact stdout is stored as
tests/golden/<name>.out.  The files were captured before the closed-form
sums moved onto the shared sequence-sum kernel, and the product-form,
`cmatrix` and `verify` cases before the trace recorded the pair rows.  The
b21 `cmatrix` cases, where D differs from C, were captured while the trace
still built D by its own step products.  The gr cases
where two lags coincide (v = 2r in gr421, v = 2t in gr412) were captured
while `SSequence` still stated s and s' as rule closures, and the b21
revisit case while the trace still derived every step afresh from its
exchange matrix.  The b21 undo cases, whose sequence repeats a vertex back
to back, were captured while the recurrence still called `mutate` at every
step.  The sk3 cases, on a skew-symmetrizable quiver with red steps, were
captured while the trace still recorded each step's pair row as the
product (E*_j - E_j) D_{j-1}^{-1}, before every pair term read -r_j B_0.
The b23 case, whose deformed sums run on a skew-symmetrizable trace, was
captured while the sum kernel still kept each state's vector sum U beside
its monomial.  The sk3 `cmatrix` cases, where D differs from C on three
vertices, were captured while the trace still stored every D_i and
D_i^{-1} beside C_i and C_i^{-1}.  The cutoff-14 cases (the g723
`stabilize` run and the g723 and dp1 limits, at the benchmark's largest
cutoff) were captured while the trace still kept a simulated C of its own
beside the product, and `limit_gale_robinson` still built every window up
to a bound of its own.  So a diff here means a kernel changed an answer or
its printing.
"""

from pathlib import Path

import pytest

from clusterforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

KR3 = ["--family", "kr", "--params", "r=3"]
G723 = ["--family", "gr", "--params", "v=7,r=2,t=3"]
A1R2 = ["--family", "a1r", "--params", "r=2"]
# B = [[0, 1], [-2, 0]] with d = (2, 1): skew-symmetrizable, so D differs from C
B21 = ["--quiver", str(GOLDEN / "b21.json")]
# B = [[0, 2], [-3, 0]] with d = (3, 2): C_n is not D_n, nor symmetric
B23 = ["--quiver", str(GOLDEN / "b23.json")]
# B = [[0, 0, -2], [0, 0, -2], [1, 1, 0]] with d = (1, 1, 2)
SK3 = ["--quiver", str(GOLDEN / "sk3.json"), "--seq", "1,3,2,1,2,1,2"]
FORMULA = ["--method", "formula"]
JSON = ["--format", "json"]

CASES = {
    "fpoly-formula-kr3-n5": ["fpoly", *KR3, "--seq", "1,2,1,2,1", *FORMULA],
    "fpoly-formula-kr3-n4-json": ["fpoly", *KR3, "--seq", "1,2,1,2", *FORMULA, *JSON],
    "fpoly-formula-g723-n11": ["fpoly", *G723, "--seq", "1,2,3,4,5,6,7,1,2,3,4",
                               *FORMULA],
    "fpoly-formula-g723-n9-json": ["fpoly", *G723, "--seq", "1,2,3,4,5,6,7,1,2",
                                   *FORMULA, *JSON],
    "fpoly-formula-a1r2-n12": ["fpoly", *A1R2, "--seq", "1..3x4", *FORMULA],
    "fpoly-formula-a1r2-n12-json": ["fpoly", *A1R2, "--seq", "1..3x4", *FORMULA, *JSON],
    "fpoly-coeff-readme": ["fpoly", "--family", "kr", "--params", "r=2",
                           "--seq", "1,2,1", "--coeff", "y1^3*y2"],
    "fpoly-coeff-formula-kr3": ["fpoly", *KR3, "--seq", "1,2,1,2,1", *FORMULA,
                                "--coeff", "y1^10*y2^3"],
    "fpoly-coeff-formula-constant": ["fpoly", *KR3, "--seq", "1,2,1,2,1", *FORMULA,
                                     "--coeff", "1"],
    "fpoly-coeff-formula-negative": ["fpoly", *KR3, "--seq", "1,2,1,2,1", *FORMULA,
                                     "--coeff", "y1^-1*y2"],
    "fpoly-coeff-formula-past-bound": ["fpoly", *KR3, "--seq", "1,2,1,2,1", *FORMULA,
                                       "--coeff", "y1^56*y2"],
    "fpoly-coeff-formula-g723": ["fpoly", *G723, "--seq", "1..7x2", *FORMULA,
                                 "--coeff", "y1^6*y2^6*y3^4*y4^5*y5^3*y6^3*y7^2"],
    "fpoly-coeff-formula-empty-seq": ["fpoly", *KR3, *FORMULA, "--coeff", "y1"],
    "fpoly-coeff-recurrence": ["fpoly", *KR3, "--seq", "1,2,1,2", "--method",
                               "recurrence", "--coeff", "y1^6*y2^2"],
    "fpoly-coeff-product": ["fpoly", *KR3, "--seq", "1,2,1,2", "--method", "product",
                            "--coeff", "y1^6*y2^2"],
    "family-kr3-n5": ["family", *KR3, "--n", "5"],
    "family-g723-n11": ["family", *G723, "--n", "11"],
    "family-a1r2-n12": ["family", *A1R2, "--n", "12"],
    "family-kr2-n0": ["family", "--family", "kr", "--params", "r=2", "--n", "0"],
    "family-gr421-n0": ["family", "--family", "gr", "--params", "v=4,r=2,t=1",
                        "--n", "0"],
    "family-a1r2-n0": ["family", *A1R2, "--n", "0"],
    "family-gr421-n8": ["family", "--family", "gr", "--params", "v=4,r=2,t=1",
                        "--n", "8"],
    "family-gr412-n8": ["family", "--family", "gr", "--params", "v=4,r=1,t=2",
                        "--n", "8"],
    "stabilize-a1r2": ["stabilize", *A1R2, "--period", "1,2,3", "--count", "6",
                       "--cutoff", "6"],
    "stabilize-g723": ["stabilize", *G723, "--period", "1..7", "--count", "4",
                       "--cutoff", "8"],
    # (3, 4, 2) does not return dP1's quiver, so every index takes its own sum
    "stabilize-dp1-period342": ["stabilize", "--family", "dp1", "--period", "3,4,2",
                                "--count", "2", "--cutoff", "4"],
    "stabilize-g723-cutoff14": ["stabilize", *G723, "--period", "1..7", "--count", "10",
                                "--cutoff", "14"],
    "stabilize-b23": ["stabilize", *B23, "--period", "1,2", "--count", "4", "--cutoff", "8"],
    "stabilize-kr3-json": ["stabilize", *KR3, "--period", "1,2", "--count", "6",
                           "--cutoff", "10", *JSON],
    "limit-kr3": ["limit", "--family", "kr", "--params", "r=3", "--cutoff", "30"],
    "limit-kr4-json": ["limit", "--family", "kr", "--params", "r=4", "--cutoff", "20",
                       *JSON],
    "limit-g723": ["limit", "--family", "gr", "--params", "v=7,r=2,t=3",
                   "--cutoff", "10"],
    "limit-g723-cutoff14": ["limit", *G723, "--cutoff", "14"],
    "limit-dp1": ["limit", "--family", "dp1", "--cutoff", "8"],
    "limit-dp1-cutoff14": ["limit", "--family", "dp1", "--cutoff", "14"],
    "limit-a1r2": ["limit", *A1R2, "--cutoff", "10"],
    "limit-gr412": ["limit", "--family", "gr", "--params", "v=4,r=1,t=2",
                    "--cutoff", "6"],
    "fpoly-product-kr3-n5": ["fpoly", *KR3, "--seq", "1,2,1,2,1", "--method", "product"],
    "fpoly-product-g723-n9": ["fpoly", *G723, "--seq", "1,2,3,4,5,6,7,1,2",
                              "--method", "product"],
    "cmatrix-g723": ["cmatrix", *G723, "--seq", "1..7"],
    "cmatrix-g723-between-json": ["cmatrix", *G723, "--seq", "1..7", *JSON,
                                  "--between", "2", "7"],
    "verify-g723": ["verify", *G723, "--seq", "1..7"],
    "cmatrix-b21": ["cmatrix", *B21, "--seq", "1,2,1"],
    "cmatrix-b21-between": ["cmatrix", *B21, "--seq", "1,2,1", "--between", "1", "3"],
    # B recurs under both colors (green x4, red x2, green x2), so the trace
    # reuses derived steps of each color
    "cmatrix-b21-revisit": ["cmatrix", *B21, "--seq", "1,2,1,2,1,2,1,2"],
    # steps 3, 4 and 5 each undo the step before them
    "fpoly-recurrence-b21-undo": ["fpoly", *B21, "--seq", "1,2,2,1,1,2",
                                  "--method", "recurrence"],
    "fpoly-recurrence-b21-undo-json": ["fpoly", *B21, "--seq", "1,2,2,1,1,2",
                                       "--method", "recurrence", *JSON],
    "mutate-b21-undo": ["mutate", *B21, "--seq", "1,2,2,1,1,2"],
    "mutate-b21-undo-json": ["mutate", *B21, "--seq", "1,2,2,1,1,2", *JSON],
    # steps 4 to 7 are red, and F_7 has 177 terms; B_0 is not skew-symmetric,
    # so a pair row built from B_0 transposed changes every output
    "fpoly-formula-sk3": ["fpoly", *SK3, *FORMULA],
    "fpoly-product-sk3": ["fpoly", *SK3, "--method", "product"],
    "verify-sk3": ["verify", *SK3],
    # d = (1, 1, 2), so D differs from C on a 3-vertex trace with red steps
    "cmatrix-sk3": ["cmatrix", *SK3],
    "cmatrix-sk3-between": ["cmatrix", *SK3, "--between", "2", "6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_stabilize_negative_cutoff_is_bad_parameters(capsys):
    # a negative cutoff is BadParameters (exit 2) for stabilize as for limit
    for argv in (["stabilize", *KR3, "--period", "1,2", "--count", "3", "--cutoff", "-1"],
                 ["stabilize", *A1R2, "--period", "1,2,3", "--count", "2", "--cutoff", "-5"],
                 ["limit", *KR3, "--cutoff", "-1"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "cutoff must be nonnegative" in err


def test_family_negative_n_is_bad_parameters(capsys, tmp_path):
    # gr and a1r used to print 1 and exit 0 for --n -1 while kr exited 2
    for family in (["--family", "kr", "--params", "r=2"],
                   ["--family", "gr", "--params", "v=4,r=2,t=1"], A1R2):
        assert main(["family", *family, "--n", "-1"]) == 2
        out, err = capsys.readouterr()
        assert "n must be nonnegative" in err
        # F_n is computed before the quiver JSON is written anywhere
        assert out == ""
        out_file = tmp_path / "quiver.json"
        assert main(["family", *family, "--n", "-1", "--out", str(out_file)]) == 2
        assert capsys.readouterr().out == ""
        assert not out_file.exists()


def test_limit_gale_robinson_rejects_what_family_rejects(capsys):
    # G_{4,1,1} has r = t: `family` refuses it, and so does `limit`
    assert main(["limit", "--family", "gr", "--params", "v=4,r=1,t=1", "--cutoff", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "disjoint" in err
