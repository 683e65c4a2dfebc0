"""Regenerate pins.json: the sha256 of every command output the workloads run.

    python3 perfbench/pin.py

Run from the root of a checkout of the commit whose outputs are the
reference.  All commands run in one fresh interpreter; every output must
pass the content gates (exit 0, VERIFIED lines, restriction oracle) before
its digest is pinned.
"""

import hashlib
import json
import os
import sys
import time

import run
import workloads


def pinned_commands(counts):
    cmds = workloads.commands("verify-sweep", 0, counts)
    cmds += workloads.commands("poset-build", 0, counts)
    for stratum in workloads.restrict_plan(counts):
        cmds += [workloads.restrict_args(rows, fmt) for rows, fmt in stratum]
    return cmds


def main():
    root = os.getcwd()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    env = run.child_env(root)
    counts = workloads.subsequence_counts(workloads.RESTRICT_RANK)
    cmds = pinned_commands(counts)
    argv = [sys.executable, run.CHILD, json.dumps(cmds)]
    _, _, _, exit_code, stdout = run.run_child(argv, env, time.perf_counter() + 3600)
    frames = run.parse_frames(stdout)
    if exit_code != 0 or len(frames) != len(cmds):
        sys.exit(f"pin: interpreter failed after {len(frames)} of {len(cmds)} commands")
    pins = {}
    for args, (header, body) in zip(cmds, frames):
        key = workloads.command_key(args)
        digest = hashlib.sha256(body).hexdigest()
        reason = workloads.check_command(args, header["exit"], body, {key: digest}, counts)
        if reason is not None:
            sys.exit(f"pin: {key}: {reason}")
        pins[key] = digest
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(pins)} outputs to {workloads.PINS_PATH}")


if __name__ == "__main__":
    main()
