"""Show that the correctness gates catch faults and error_rate reports them.

    python3 perfbench/selftest.py

Run from the root of an ogmirror checkout.  Each case runs real workload
commands in a fresh interpreter with one fault injected from outside the
package (no file under src changes), gates the outputs exactly as run.py
does, and requires the expected failures:

* corrupt-restriction: the first ``restrict`` result loses one term, so
  the rank-9 oracle count no longer matches (1 of 4 commands fails);
* failing-check: ``run_checks(5)`` reports its last check as failed, so
  ``verify --from 2 --to 8`` exits 1 without ``VERIFIED n=5`` (1 of 1 fails).

It also checks that BENCHMARK.json names exactly the metrics run.py prints.
Exits 0 when every case is caught, 1 otherwise.
"""

import dataclasses
import json
import os
import sys
import time

import run
import spans
import workloads

CASES = (
    ("corrupt-restriction", "restrict-n9", 4, 1),
    ("failing-check", "verify-sweep", 1, 1),
)


def inject(fault):
    """Patch the imported CLI so that it produces one wrong result."""
    import ogmirror.cli
    from ogmirror.polynomials import Polynomial

    if fault == "corrupt-restriction":
        original = ogmirror.cli.restrict_plucker
        state = {"done": False}

        def corrupted(n, rows):
            poly = original(n, rows)
            if state["done"]:
                return poly
            state["done"] = True
            mono, coeff = poly.sorted_terms()[0]
            return poly - Polynomial.term(coeff, dict(mono))

        ogmirror.cli.restrict_plucker = corrupted
    elif fault == "failing-check":
        original = ogmirror.cli.run_checks

        def failing(n):
            results = original(n)
            if n == 5:
                results[-1] = dataclasses.replace(results[-1], passed=False,
                                                  detail="injected failure")
            return results

        ogmirror.cli.run_checks = failing
    else:
        raise ValueError(f"unknown fault {fault!r}")


def run_case(fault, workload, size, env, pins, counts):
    cmds = workloads.commands(workload, 0, counts)[:size]
    argv = [sys.executable, os.path.abspath(__file__), "--child", fault, json.dumps(cmds)]
    _, _, _, exit_code, stdout = run.run_child(argv, env, time.perf_counter() + 120)
    frames = run.parse_frames(stdout)
    failures = run.gate(frames, exit_code, cmds, pins, counts)
    # The same outputs with every exit code forced to 0: the content gates
    # alone must still catch the fault.
    content_failures = run.gate([(dict(header, exit=0), body) for header, body in frames],
                                0, cmds, pins, counts)
    return cmds, failures, content_failures


def metric_names_match(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    return end_to_end == run.END_TO_END_UNITS and per_layer == spans.PER_LAYER_UNITS


def main():
    root = os.getcwd()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    env = run.child_env(root)
    counts = workloads.subsequence_counts(workloads.RESTRICT_RANK)
    pins = workloads.load_pins()
    ok = True
    for fault, workload, size, expected in CASES:
        cmds, failures, content_failures = run_case(fault, workload, size, env, pins, counts)
        caught = len(failures) == len(content_failures) == expected
        ok &= caught
        print(f"{fault} on {workload}: {len(failures)} of {len(cmds)} commands failed,"
              f" error_rate {len(failures) / len(cmds):.3f}"
              f" ({'caught' if caught else f'expected {expected} failures'})")
        for reason in failures + content_failures:
            print(f"  {reason}")
    names_ok = metric_names_match(root)
    ok &= names_ok
    print(f"BENCHMARK.json metric names match run.py: {names_ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        import child

        inject(sys.argv[2])
        child.run(json.loads(sys.argv[3]))
    else:
        sys.exit(main())
