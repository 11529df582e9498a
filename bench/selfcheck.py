"""Self-checks of the benchmark itself; exits nonzero on the first failure.

    python3 bench/selfcheck.py [--workload NAME] [--seed N]

1. Battery parity: at seed 20260808 the benchmark's battery generator yields
   the acceptance tests' 216 ``(name, quiver, seq)`` cases in their order,
   pinned by a digest so that nothing is imported from ``tests/``.
2. Tracer completeness: every binding of every wrapped function in every
   ``clusterforge`` module is replaced, and put back on uninstall;
   ``fpoly_recurrence`` on k2 with seq 1,2,1 records exactly 3
   ``quiver.mutate`` and 3 ``laurent.exact_divide`` calls.
3. Traced determinism: two traced runs at one seed report identical counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from clusterforge import LaurentPolynomial, make_quiver  # noqa: E402
from clusterforge import quiver as quiver_module  # noqa: E402

# sha256 of battery_json(suite_cases()) from tests/test_acceptance.py
BATTERY_DIGEST = "125445e42051d21f2dd60db78255c7878fb25afc597e45d321b55980232c98e9"
# Bindings named in the tracer's specification; all must be patched.
REQUIRED_BINDINGS = (
    "quiver.exact_divide", "verify.fpoly_formula", "closedform.coeff_a",
    "stabilization.deformed_coefficients", "cli.main", "cli.fpoly_formula",
    "cli.fpoly_product_form", "cli.trace", "cli.mutate", "cli.fpoly_kr",
    "cli.fpoly_gale_robinson", "cli.fpoly_symmetric", "cli.stabilization_run",
    "cli.limit_a1r", "cli.limit_kr", "cli.limit_gale_robinson",
    "cli.run_verification", "laurent.LaurentPolynomial.__mul__",
    "laurent.LaurentPolynomial.__rmul__", "laurent.LaurentPolynomial.to_text",
)


class SelfCheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise SelfCheckFailed(message)


def battery_json(cases) -> str:
    return json.dumps([[name, [list(row) for row in q.b], list(seq)]
                       for name, q, seq in cases])


def check_battery_parity():
    cases = workloads.battery_cases(workloads.BATTERY_SEED)
    require(len(cases) == 216, f"battery has {len(cases)} cases, not 216")
    digest = hashlib.sha256(battery_json(cases).encode()).hexdigest()
    require(digest == BATTERY_DIGEST, f"battery digest {digest} != {BATTERY_DIGEST}")
    print("battery parity: 216 cases, digest matches the acceptance battery")


def _bindings_of(originals):
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "clusterforge" or name.startswith("clusterforge."):
            for attr, value in vars(module).items():
                if any(value is fn for fn in originals):
                    found.append(f"{name}.{attr}")
    return found


def check_tracer():
    originals = [getattr(sys.modules[f"clusterforge.{m}"], f) for m, f in tracing.FUNCTIONS]
    mul = LaurentPolynomial.__mul__
    before = _bindings_of(originals)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missing = [b for b in REQUIRED_BINDINGS if b not in tracer.patched]
        require(not missing, f"bindings not patched: {missing}")
        left = _bindings_of(originals)
        require(not left, f"unwrapped bindings remain: {left}")
        quiver_module.fpoly_recurrence(make_quiver([[0, 2], [-2, 0]]), (1, 2, 1))
        mutates = tracer.stats["quiver.mutate"][0]
        divides = tracer.stats["laurent.exact_divide"][0]
        require((mutates, divides) == (3, 3),
                f"k2 (1,2,1): {mutates} mutate and {divides} exact_divide calls, not 3 and 3")
    finally:
        tracer.uninstall()
    require(_bindings_of(originals) == before and LaurentPolynomial.__mul__ is mul
            and LaurentPolynomial.__rmul__ is mul, "uninstall left wrappers in place")
    print(f"tracer: {len(tracer.patched)} bindings patched and restored; "
          "k2 (1,2,1) records 3 mutate and 3 exact_divide calls")


def _traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=False, timeout=600)
    require(proc.returncode == 0, f"traced {workload} run failed: {proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] == "count" or k == "laurent.mul.terms_per_pair"}


def check_traced_determinism(names, seed):
    for workload in names:
        first = _traced_counts(workload, seed)
        second = _traced_counts(workload, seed)
        differ = sorted(k for k in first if first[k] != second[k])
        require(not differ, f"{workload}: counts differ between traced runs: {differ}")
        print(f"traced determinism: {workload} seed {seed}, {len(first)} counts identical")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Self-checks of the benchmark.")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS),
                        help="traced-determinism check on this workload only")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        check_battery_parity()
        check_tracer()
        check_traced_determinism(
            [args.workload] if args.workload else list(workloads.WORKLOADS), args.seed)
    except SelfCheckFailed as exc:
        print(f"SELF-CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    print("all self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
