"""CLI output pinned byte for byte against files in tests/golden/.

Each case is one `clusterforge` invocation; its exact stdout is stored as
tests/golden/<name>.out.  The files were captured before the closed-form
sums moved onto the shared sequence-sum kernel, and the product-form,
`cmatrix` and `verify` cases before the trace recorded the pair rows, so a
diff here means a kernel changed an answer or its printing.
"""

from pathlib import Path

import pytest

from clusterforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

KR3 = ["--family", "kr", "--params", "r=3"]
G723 = ["--family", "gr", "--params", "v=7,r=2,t=3"]
A1R2 = ["--family", "a1r", "--params", "r=2"]
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
    "stabilize-a1r2": ["stabilize", *A1R2, "--period", "1,2,3", "--count", "6",
                       "--cutoff", "6"],
    "stabilize-g723": ["stabilize", *G723, "--period", "1..7", "--count", "4",
                       "--cutoff", "8"],
    "stabilize-kr3-json": ["stabilize", *KR3, "--period", "1,2", "--count", "6",
                           "--cutoff", "10", *JSON],
    "limit-kr3": ["limit", "--family", "kr", "--params", "r=3", "--cutoff", "30"],
    "limit-kr4-json": ["limit", "--family", "kr", "--params", "r=4", "--cutoff", "20",
                       *JSON],
    "limit-g723": ["limit", "--family", "gr", "--params", "v=7,r=2,t=3",
                   "--cutoff", "10"],
    "limit-dp1": ["limit", "--family", "dp1", "--cutoff", "8"],
    "limit-a1r2": ["limit", *A1R2, "--cutoff", "10"],
    "fpoly-product-kr3-n5": ["fpoly", *KR3, "--seq", "1,2,1,2,1", "--method", "product"],
    "fpoly-product-g723-n9": ["fpoly", *G723, "--seq", "1,2,3,4,5,6,7,1,2",
                              "--method", "product"],
    "cmatrix-g723": ["cmatrix", *G723, "--seq", "1..7"],
    "cmatrix-g723-between-json": ["cmatrix", *G723, "--seq", "1..7", *JSON,
                                  "--between", "2", "7"],
    "verify-g723": ["verify", *G723, "--seq", "1..7"],
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


def test_family_negative_n_is_bad_parameters(capsys):
    # gr and a1r used to print 1 and exit 0 for --n -1 while kr exited 2
    for family in (["--family", "kr", "--params", "r=2"],
                   ["--family", "gr", "--params", "v=4,r=2,t=1"], A1R2):
        assert main(["family", *family, "--n", "-1"]) == 2
        assert "n must be nonnegative" in capsys.readouterr().err


def test_limit_gale_robinson_rejects_what_family_rejects(capsys):
    # G_{4,1,1} has r = t: `family` refuses it, and so does `limit`
    assert main(["limit", "--family", "gr", "--params", "v=4,r=1,t=1", "--cutoff", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "disjoint" in err
