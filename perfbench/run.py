"""ogmirror benchmark: closed-loop CLI workloads in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an ogmirror checkout; the package is imported from its
``src``.  One caller runs one iteration at a time: each iteration starts a
fresh interpreter (``child.py``) that runs the workload's CLI commands
through ``ogmirror.cli.main`` and exits, so every iteration pays the cold
caches that a command-line user pays.  Iterations repeat until the next one
would overrun ``--seconds``.  Every command's output passes the gates in
``workloads.py``; a command whose output fails counts as a failed operation.

--trace 0 reports the end-to-end metrics (medians over iterations):
wall_s (spawn to exit), cpu_s (user + system, from wait4), peak_rss_mb
(the interpreter's high-water mark, from wait4) and setup_s (a fresh
interpreter importing ogmirror.cli, median of several).
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of ``spans.py``, with the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Spans, per-run results and child stderr go to
``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
STDERR_PATH = os.path.join(OUT_DIR, "child-stderr.txt")
# A run must end within 180 s; no iteration may outlive this.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 7
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBE = "import sys, ogmirror.cli; sys.stdout.write(ogmirror.cli.__file__)"


class Iteration:
    """One fresh-interpreter run of a workload's commands, already gated.

    Outputs are checked and dropped as soon as the interpreter exits, so the
    parent stays small: Linux starts a spawned child's peak RSS from the
    parent's peak at the time of the spawn.
    """

    def __init__(self, traced, wall, usage, exit_code, failures):
        self.traced = traced
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.exit_code = exit_code
        self.failures = failures
        self.layers = None


def child_env(root):
    """The environment of every spawned interpreter: ogmirror from root/src."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def parse_frames(data):
    """Split the child's stdout into (header, output bytes) frames."""
    frames = []
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline < 0:
            break
        header = json.loads(data[pos:newline])
        body_end = newline + 1 + header["bytes"]
        if body_end > len(data):
            break
        frames.append((header, data[newline + 1:body_end]))
        pos = body_end
    return frames


def run_child(argv, env, deadline):
    """Run one interpreter to completion.

    Returns (spawn, wall, usage, exit code, stdout).

    Its stdout is drained as it arrives; if the deadline passes first the
    interpreter is killed.  wait4 reaps it and reports its own rusage.
    """
    with open(STDERR_PATH, "wb") as err:
        spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
    chunks = []
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                break
            if selector.select(remaining):
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        with open(STDERR_PATH, encoding="utf-8", errors="replace") as err:
            sys.stderr.write(err.read()[-2000:])
    return spawn, wall, usage, proc.returncode, b"".join(chunks)


def run_iteration(workload, cmds, env, traced, deadline, gates):
    argv = [sys.executable, CHILD, json.dumps(cmds)]
    spans_path = os.path.join(OUT_DIR, f"{workload}.spans")
    if traced:
        if os.path.exists(spans_path):
            os.remove(spans_path)
        argv.append(spans_path)
    spawn, wall, usage, exit_code, stdout = run_child(argv, env, deadline)
    frames = parse_frames(stdout)
    iteration = Iteration(traced, wall, usage, exit_code,
                          gate(frames, exit_code, cmds, *gates))
    if traced and exit_code == 0:
        iteration.layers = spans.summarize(spans.load(spans_path), spawn, wall)
        iteration.layers["cli.output_bytes"] = sum(len(body) for _, body in frames)
    return iteration


def gate(frames, exit_code, cmds, pins, counts):
    """Failure reasons, one per failed command of the iteration."""
    failures = []
    for k, args in enumerate(cmds):
        if k < len(frames):
            header, body = frames[k]
            reason = workloads.check_command(args, header["exit"], body, pins, counts)
        else:
            reason = f"no output; interpreter exit code {exit_code}"
        if reason is None and k == len(cmds) - 1 and exit_code != 0:
            reason = f"interpreter exit code {exit_code}"
        if reason is not None:
            failures.append(f"{workloads.command_key(args)}: {reason}")
    return failures


def measure_setup(env, root):
    """Median seconds for a fresh interpreter to import ogmirror.cli.

    The first, untimed probe also checks that the package comes from this
    checkout's src.
    """
    argv = [sys.executable, "-c", SETUP_PROBE]
    expected = os.path.join(root, "src", "ogmirror", "cli.py")
    times = []
    for sample in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        probe = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if probe.returncode != 0:
            raise RuntimeError("cannot import ogmirror.cli: "
                               + probe.stderr.decode(errors="replace")[-500:])
        if os.path.realpath(probe.stdout.decode()) != os.path.realpath(expected):
            raise RuntimeError(f"ogmirror imported from {probe.stdout.decode()!r}, "
                               f"not from {expected!r}")
        if sample:
            times.append(elapsed)
    return statistics.median(times)


def git_commit(root):
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root):
    """sha256 over the paths and bytes of every .py file under src."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    paths = []
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        paths.extend(os.path.join(directory, f) for f in files if f.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def environment(args, root):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "src_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, cmds, env, deadline, gates):
    """Closed loop: run rounds of iterations until the next would overrun."""
    modes = (False, True) if args.trace else (False,)
    iterations = []
    begin = time.perf_counter()
    rounds = 0
    while True:
        for traced in (modes if rounds % 2 == 0 else modes[::-1]):
            iterations.append(
                run_iteration(args.workload, cmds, env, traced, deadline, gates))
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / rounds > args.seconds or time.perf_counter() >= deadline:
            return iterations


def end_to_end_metrics(untraced, setup_s):
    values = {
        "wall_s": statistics.median(it.wall for it in untraced),
        "cpu_s": statistics.median(it.cpu for it in untraced),
        "peak_rss_mb": statistics.median(it.rss_mb for it in untraced),
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(untraced, traced):
    """Medians over the traced iterations; counts take an observed value."""
    layered = [it.layers for it in traced if it.layers is not None]
    traced_wall = statistics.median(it.wall for it in traced)
    untraced_wall = statistics.median(it.wall for it in untraced)
    values = {}
    for name, unit in spans.PER_LAYER_UNITS.items():
        samples = [layers[name] for layers in layered if name in layers]
        if samples:
            values[name] = (statistics.median(samples) if unit == "s"
                            else statistics.median_low(samples))
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.span_cost_s"] = values.get("trace.spans", 0) * spans.span_cost()
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in spans.PER_LAYER_UNITS.items()}


def print_layer_table(metrics):
    value = {name: entry["value"] for name, entry in metrics.items()}
    traced_wall = value["trace.wall_s"]
    print(f"{'layer':<12} {'self s':>10} {'share':>7}")
    attributed = 0.0
    for layer in spans.LAYERS:
        self_s = value[f"{layer}.self_s"]
        attributed += self_s
        print(f"{layer:<12} {self_s:>10.4f} {self_s / traced_wall:>7.1%}")
    print(f"{'(outside)':<12} {value['trace.unattributed_s']:>10.4f}")
    overhead = value["trace.overhead_s"]
    untraced = value["trace.untraced_wall_s"]
    print(f"traced wall {traced_wall:.4f} s ~ layer self {attributed:.4f} s"
          f" + outside spans {value['trace.unattributed_s']:.4f} s")
    print(f"tracing overhead: traced {traced_wall:.4f} s - untraced {untraced:.4f} s"
          f" = {overhead:.4f} s over {value['trace.spans']} spans")
    for label, cost in (("measured overhead", overhead),
                        ("span cost", value["trace.span_cost_s"])):
        print(f"layer self - {label} = {attributed - cost:.4f} s,"
              f" {(attributed - cost) / untraced:.1%} of untraced wall {untraced:.4f} s")
    for name, entry in metrics.items():
        if not name.endswith(".self_s") and not name.startswith("trace."):
            print(f"  {name:<36} {entry['value']:>16} {entry['unit']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ogmirror", "cli.py")):
        print("perfbench: src/ogmirror/cli.py not found; run from the root of an"
              " ogmirror checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env(root)
    counts = workloads.subsequence_counts(workloads.RESTRICT_RANK)
    pins = workloads.load_pins()
    cmds = workloads.commands(args.workload, args.seed, counts)
    env_record = environment(args, root)
    print("env " + json.dumps(env_record))

    setup_s = measure_setup(env, root)
    iterations = measure(args, cmds, env, deadline, (pins, counts))
    failures = [reason for it in iterations for reason in it.failures]
    attempted = len(cmds) * len(iterations)
    untraced = [it for it in iterations if not it.traced]
    traced = [it for it in iterations if it.traced]

    print(f"workload {args.workload}: {len(untraced)} untraced and {len(traced)} traced"
          f" iterations of {len(cmds)} commands")
    for it in iterations:
        print(f"  {'traced' if it.traced else 'untraced'} wall {it.wall:.4f} s"
              f" cpu {it.cpu:.4f} s peak {it.rss_mb:.1f} MB exit {it.exit_code}")
    print(f"error_rate {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    for reason in failures[:10]:
        print(f"  FAILED {reason}")

    if args.trace:
        metrics = per_layer_metrics(untraced, traced)
        print_layer_table(metrics)
    else:
        metrics = end_to_end_metrics(untraced, setup_s)
        walls = sorted(it.wall for it in untraced)
        print(f"wall_s median {metrics['wall_s']['value']:.4f} s over {len(walls)} samples"
              f" (min {walls[0]:.4f}, max {walls[-1]:.4f}); setup_s {setup_s:.4f} s")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(result, env=env_record, error_rate=len(failures) / attempted,
                  failures=failures[:50],
                  samples=[{"traced": it.traced, "wall_s": it.wall, "cpu_s": it.cpu,
                            "peak_rss_mb": it.rss_mb} for it in iterations])
    record_path = os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
