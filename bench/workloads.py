"""The three benchmark workloads: seeded inputs, operations and their checks.

``WORKLOADS[name](seed, scratch)`` builds one pass: a list of ``Op``s in
seeded order.  The program under test sees only the generated inputs.  Ops
call the program through its module attributes (``cli.main``,
``verify.run_verification``, ...) so that the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from clusterforge import (FamilySpec, build_family, build_gale_robinson,
                          canonical_sequence, cli, closedform, cmatrix,
                          degree_bounds, make_quiver, quiver, stabilization,
                          verify)

# The acceptance battery's cap on the degree-bound sum of a case, and the
# seed at which the acceptance tests draw it.
BATTERY_CAP = 36
BATTERY_SEED = 20260808

# Keys of a verification report that compare the three F-polynomial methods.
EXACTNESS_KEYS = ("formula equals recurrence", "product form equals recurrence")


@dataclass(frozen=True)
class Failure:
    """Why one op failed.

    ``exact`` is True when an exact result was wrong: the op raised, exited
    nonzero, or disagreed with its independent method.  It is False when the
    program's own verification report flagged a check on a valid input.
    """

    reason: str
    exact: bool


@dataclass
class Op:
    """One closed-loop operation: ``run()`` is timed, the rest is not.

    ``check(output)`` returns ``None`` or a ``Failure``.  ``size`` starts with
    the degree-bound sum; ``measure(output)`` returns the output term count
    and the maximum coefficient bit length.
    """

    op_id: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Failure | None]
    measure: Callable[[Any], dict]
    size: dict = field(default_factory=dict)


def _size_of_coeffs(coeffs) -> dict:
    coeffs = list(coeffs)
    return {"terms": len(coeffs),
            "coeff_bits": max((abs(c).bit_length() for c in coeffs), default=0)}


def _stratified_sample(rng, monomials, count):
    """One monomial from each of ``count`` equal runs of the degree order.

    A query's cost grows with its monomial's degree, so stratified draws
    give every seed about the same spread of query costs.
    """
    ordered = sorted(monomials, key=lambda m: (sum(m), m))
    bounds = [len(ordered) * i // count for i in range(count + 1)]
    return [rng.choice(ordered[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


# -- verify_battery ----------------------------------------------------------


def _all_sequences(v, max_len):
    out = []
    stack = [()]
    while stack:
        seq = stack.pop()
        if seq:
            out.append(seq)
        if len(seq) < max_len:
            stack.extend(seq + (k,) for k in range(1, v + 1))
    return out


def random_skew_symmetric(rng, v, max_entry=2):
    b = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            x = rng.randint(-max_entry, max_entry)
            b[i][j] = x
            b[j][i] = -x
    return make_quiver(b)


def random_sequence(rng, v, length):
    return tuple(rng.randint(1, v) for _ in range(length))


def battery_cases(seed):
    """The acceptance battery: named quivers plus seeded random draws.

    At seed 20260808 this yields the same 216 ``(name, quiver, seq)`` cases,
    in the same order, as the oracle-equivalence battery of the acceptance
    tests; ``selfcheck.py`` pins that by digest.
    """
    rng = random.Random(seed)
    named = {
        "a2": make_quiver([[0, 1], [-1, 0]]),
        "a3": make_quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]),
        "k2": make_quiver([[0, 2], [-2, 0]]),
        "k3": make_quiver([[0, 3], [-3, 0]]),
        "a12": build_family(FamilySpec.of("a1r", r=2)),
        "g421": build_gale_robinson(4, 2, 1),
        "g723": build_gale_robinson(7, 2, 3),
        "b21": make_quiver([[0, 1], [-2, 0]]),
    }
    cases = []
    exhaustive = {"a2": 3, "a3": 2, "k2": 3, "k3": 3, "a12": 2, "b21": 3}
    for name, depth in exhaustive.items():
        for seq in _all_sequences(named[name].v, depth):
            cases.append((name, named[name], seq))
    random_plan = {
        "a2": (10, 8), "a3": (10, 8), "k2": (10, 8), "k3": (8, 6),
        "a12": (10, 8), "g421": (16, 8), "g723": (12, 8), "b21": (10, 8),
    }
    for name, (count, max_len) in random_plan.items():
        q = named[name]
        kept = 0
        while kept < count:
            seq = random_sequence(rng, q.v, rng.randint(1, max_len))
            if sum(degree_bounds(q, seq)) > BATTERY_CAP:
                continue
            cases.append((name, q, seq))
            kept += 1
    drawn = 0
    while drawn < 50:
        q = random_skew_symmetric(rng, rng.randint(2, 4))
        seq = random_sequence(rng, q.v, rng.randint(1, 8))
        if sum(degree_bounds(q, seq)) > BATTERY_CAP:
            continue
        cases.append((f"rand{drawn}", q, seq))
        drawn += 1
    return cases


def _check_report(report) -> Failure | None:
    failing = [name for name, ok in report.items() if not ok]
    if not failing:
        return None
    return Failure("; ".join(failing), any(k in EXACTNESS_KEYS for k in failing))


def verify_battery(seed, scratch):
    """One op per battery case: ``verify.run_verification(q, seq)``.

    The cases are always the acceptance battery (seed 20260808); ``seed``
    draws the order.  Batteries drawn at other seeds contain cases on which
    one op runs for more than 15 s, and their pass time varies from 1.5 s to
    over 100 s, so they cannot give a bounded, steady run.
    """
    ops = []
    for index, (name, q, seq) in enumerate(battery_cases(BATTERY_SEED)):
        def measure(_report, q=q, seq=seq):
            poly = closedform.fpoly_formula(cmatrix.trace(q, seq), len(seq))
            return _size_of_coeffs(poly.terms.values())

        ops.append(Op(
            op_id=f"{index:03d}-{name}-{''.join(map(str, seq))}",
            kind="run_verification",
            run=lambda q=q, seq=seq: verify.run_verification(q, seq),
            check=_check_report,
            measure=measure,
            size={"degree_bound_sum": sum(degree_bounds(q, seq))},
        ))
    random.Random(seed).shuffle(ops)
    return ops


# -- fpoly_large -------------------------------------------------------------

# (family, params, n, methods).  Every size is above the battery's cap.  The
# recurrence is left out where it is past a cliff: a1r r=2 n=28 takes 16 s by
# recurrence, and G(7,2,3) n=13 takes 4.2 s, against 0.1 s by formula.
FAMILY_PLAN = (
    ("kr", "r=2", 19, ("recurrence", "formula", "family")),
    ("kr", "r=3", 5, ("recurrence", "formula", "family")),
    ("kr", "r=4", 4, ("recurrence", "formula", "family")),
    ("gr", "v=4,r=2,t=1", 8, ("recurrence", "formula", "family")),
    ("gr", "v=7,r=2,t=3", 13, ("formula", "family")),
    ("a1r", "r=2", 28, ("formula", "family")),
    ("a1r", "r=3", 30, ("formula", "family")),
)
RANDOM_QUIVERS = 1
# Random quivers are kept when their degree-bound sum is in the window and at
# most RANDOM_BOX_MAX monomials lie under their degree bound.  The recurrence's
# cost grows with F_n's term count, which the box caps (1,090 terms at
# degree-bound sum 41 took 1.3 s); in the box, F_n has 170-210 terms and the
# recurrence takes under 30 ms, so the random ops stay below the median
# latency, which then falls between two family ops of nearly equal cost.
RANDOM_DEGREE_WINDOW = (BATTERY_CAP + 1, 52)
RANDOM_BOX_MAX = 700
# Draws examined even after enough quivers are found, so that set-up cost does
# not depend on how early a seed finds them; of 30 seeds, 29 needed at most
# 1,118 draws and one needed 2,361.
RANDOM_DRAWS = 1200


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _poly_text(method, stdout):
    # `family --n` prints the quiver JSON first and the polynomial last
    lines = stdout.splitlines()
    return lines[-1] if lines and method == "family" else stdout.rstrip("\n")


def _text_size(text) -> dict:
    coeffs = []
    for term in text.split(" + "):
        head = term.split("*", 1)[0]
        coeffs.append(int(head) if head.isdigit() else 1)
    return _size_of_coeffs(coeffs)


def _random_green_cases(rng, count):
    """Random skew-symmetric quivers with all-green sequences above the cap.

    All-green sequences keep the formula free of cancelling sums, whose cost
    is unbounded on random quivers.  The size limits keep the work per pass
    steady from seed to seed.  The first ``count`` eligible draws are kept.
    """
    degree_lo, degree_hi = RANDOM_DEGREE_WINDOW
    cases = []
    draws = 0
    while draws < RANDOM_DRAWS or len(cases) < count:
        draws += 1
        q = random_skew_symmetric(rng, rng.randint(3, 4), max_entry=3)
        seq = random_sequence(rng, q.v, rng.randint(3, 5))
        if any(a == b for a, b in zip(seq, seq[1:])):
            continue
        if "red" in cmatrix.trace(q, seq).colors:
            continue
        bound = degree_bounds(q, seq)
        if (len(cases) < count and degree_lo <= sum(bound) <= degree_hi
                and math.prod(b + 1 for b in bound) <= RANDOM_BOX_MAX):
            cases.append((q, seq))
    return cases


def fpoly_large(seed, scratch):
    """CLI ops on a few large F-polynomials; each case by two or three methods.

    One op is ``cli.main([...])`` with stdout captured: ``fpoly --method
    recurrence``, ``fpoly --method formula`` or ``family --n``.  The
    polynomial text of every method of a case must be byte-identical.  The
    family sizes are fixed, because the cost grows several-fold per step of
    n; the seed draws the random quiver and the op order.
    """
    rng = random.Random(seed)
    cases = []
    for family, params, n, methods in FAMILY_PLAN:
        spec = FamilySpec.of(family, **{k: int(v) for k, v in
                                        (p.split("=") for p in params.split(","))})
        q = build_family(spec)
        seq = canonical_sequence(q.v, n)
        source = ["--family", family, "--params", params]
        cases.append((f"{family}-{params}-n{n}", q, seq, source, methods,
                      ["family", "--family", family, "--params", params, "--n", str(n)]))
    for index, (q, seq) in enumerate(_random_green_cases(rng, RANDOM_QUIVERS)):
        path = os.path.join(scratch, f"rand{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"b": [list(row) for row in q.b]}, handle)
        cases.append((f"rand{index}", q, seq, ["--quiver", path],
                      ("recurrence", "formula"), None))

    ops = []
    for case_id, q, seq, source, methods, family_argv in cases:
        dbs = sum(degree_bounds(q, seq))
        if dbs <= BATTERY_CAP:
            raise ValueError(f"{case_id} is not above the battery's cap")
        outputs: dict[str, str] = {}  # method -> polynomial text, shared by the case
        for method in methods:
            if method == "family":
                argv = family_argv
            else:
                argv = (["fpoly"] + source
                        + ["--seq", ",".join(map(str, seq)), "--method", method])

            def check(result, method=method, outputs=outputs):
                code, stdout, stderr = result
                if code != 0:
                    return Failure(f"{method} exit {code}: {stderr.strip()}", True)
                text = _poly_text(method, stdout)
                outputs[method] = text
                for other, other_text in outputs.items():
                    if other != method and other_text != text:
                        return Failure(f"{method} != {other}", True)
                return None

            ops.append(Op(
                op_id=f"{case_id}-{method}",
                kind=method,
                run=lambda argv=argv: _run_cli(argv),
                check=check,
                measure=lambda result, method=method: _text_size(
                    _poly_text(method, result[1])),
                size={"degree_bound_sum": dbs},
            ))
    rng.shuffle(ops)
    return ops


# -- stabilize_limits --------------------------------------------------------

# The runs were measured to match their limits at every count in
# STABILIZE_COUNTS and cutoff in STABILIZE_CUTOFFS; at count 4 and cutoff 14
# some have not stabilized yet.
STABILIZE_COUNTS = (6, 8, 10)
STABILIZE_CUTOFFS = (6, 10, 14)
# (name, quiver builder, n) of the full F_n that coefficient_of queries are
# checked against; F_n comes from the recurrence in set-up.
POINT_QUERY_CASES = (
    ("kr3", lambda: build_family(FamilySpec.of("kr", r=3)), 5),
    ("dp1", lambda: build_gale_robinson(4, 2, 1), 8),
    ("g723", lambda: build_gale_robinson(7, 2, 3), 11),
    ("a1r3", lambda: build_family(FamilySpec.of("a1r", r=3)), 12),
)
POINT_QUERIES_PER_CASE = 24
DP1_CUTOFF = 14
DP1_QUERIES = 32


def _stabilize_families():
    """(name, quiver, limit of its deformed polynomials at a cutoff)."""
    return (
        ("a1r2", build_family(FamilySpec.of("a1r", r=2)),
         lambda c: stabilization.limit_a1r(2, c)),
        ("a1r3", build_family(FamilySpec.of("a1r", r=3)),
         lambda c: stabilization.limit_a1r(3, c)),
        ("kr2", build_family(FamilySpec.of("kr", r=2)),
         lambda c: stabilization.limit_kr(2, c)),
        ("kr3", build_family(FamilySpec.of("kr", r=3)),
         lambda c: stabilization.limit_kr(3, c)),
        ("kr4", build_family(FamilySpec.of("kr", r=4)),
         lambda c: stabilization.limit_kr(4, c)),
        ("dp1", build_gale_robinson(4, 2, 1),
         lambda c: stabilization.limit_gale_robinson(4, 2, 1, c)),
        ("g723", build_gale_robinson(7, 2, 3),
         lambda c: stabilization.limit_gale_robinson(7, 2, 3, c)),
    )


def _expect(value, expected, what) -> Failure | None:
    if value == expected:
        return None
    return Failure(f"{what}: {value} != {expected}", True)


def stabilize_limits(seed, scratch):
    """Stabilization runs against closed-form limits, plus point queries.

    Ops: ``stabilization_run`` with its ``limit_*`` and
    ``limits_match_up_to_cycle`` (a fixed grid of families, counts and
    cutoffs); ``dp1_coefficient`` against the dP1 limit from set-up; and
    ``coefficient_of`` against a full F_n from set-up.  The seed draws the
    queried monomials, stratified by degree, and the op order.
    """
    rng = random.Random(seed)
    ops = []
    for name, q, limit in _stabilize_families():
        period = tuple(range(1, q.v + 1))
        for count in STABILIZE_COUNTS:
            for cutoff in STABILIZE_CUTOFFS:
                def run(q=q, period=period, count=count, cutoff=cutoff, limit=limit):
                    report = stabilization.stabilization_run(q, period, count, cutoff)
                    lim = limit(cutoff)
                    return stabilization.limits_match_up_to_cycle(report, lim), lim

                ops.append(Op(
                    op_id=f"stabilize-{name}-c{count}-k{cutoff}",
                    kind="stabilize",
                    run=run,
                    check=lambda result, name=name: None if result[0] is not None
                    else Failure(f"stabilization_run != limit ({name})", True),
                    measure=lambda result: _size_of_coeffs(result[1].terms.values()),
                    size={"degree_bound_sum": cutoff},
                ))

    dp1_limit = stabilization.limit_gale_robinson(4, 2, 1, DP1_CUTOFF)
    for mono in _stratified_sample(rng, dp1_limit.terms, DP1_QUERIES):
        expected = dp1_limit.terms[mono]
        # dp1_coefficient reads the exponents in the reversed variable frame
        a, b, c, d = reversed(mono)
        ops.append(Op(
            op_id=f"dp1-{a}.{b}.{c}.{d}",
            kind="dp1_coefficient",
            run=lambda a=a, b=b, c=c, d=d: stabilization.dp1_coefficient(a, b, c, d),
            check=lambda value, expected=expected: _expect(
                value, expected, "dp1_coefficient != limit_gale_robinson"),
            measure=lambda value: _size_of_coeffs([value]),
            size={"degree_bound_sum": sum(mono)},
        ))

    for name, build, n in POINT_QUERY_CASES:
        q = build()
        seq = canonical_sequence(q.v, n)
        full = quiver.fpoly_recurrence(q, seq)[-1]
        tr = cmatrix.trace(q, seq)
        for mono in _stratified_sample(rng, full.terms, POINT_QUERIES_PER_CASE):
            expected = full.terms[mono]
            ops.append(Op(
                op_id=f"coeff-{name}-n{n}-{'.'.join(map(str, mono))}",
                kind="coefficient_of",
                run=lambda tr=tr, n=n, mono=mono: closedform.coefficient_of(tr, n, mono),
                check=lambda value, expected=expected: _expect(
                    value, expected, "coefficient_of != fpoly_recurrence"),
                measure=lambda value: _size_of_coeffs([value]),
                size={"degree_bound_sum": sum(mono)},
            ))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "verify_battery": verify_battery,
    "fpoly_large": fpoly_large,
    "stabilize_limits": stabilize_limits,
}
