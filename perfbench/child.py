"""One benchmark iteration: run CLI commands in this fresh interpreter.

    python3 perfbench/child.py COMMANDS_JSON [SPANS_PATH]

COMMANDS_JSON is a JSON list of argument lists for ``ogmirror.cli.main``;
they run in order in this one process, so caches filled by one command are
warm for the next while every iteration starts cold.  For each command the
child writes one frame to stdout: a JSON header line
``{"exit": code, "bytes": size}`` followed by the command's stdout bytes.
With SPANS_PATH, every layer is traced and the spans are written to that
file once, after the last command.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def run_command(main, args):
    """Run one CLI command with stdout captured; return (exit code, bytes)."""
    buffer = io.BytesIO()
    capture = io.TextIOWrapper(buffer, encoding="utf-8")
    sys.stdout = capture
    try:
        main(args, prog_name="ogmirror")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        capture.flush()
        sys.stdout = sys.__stdout__
    data = buffer.getvalue()
    capture.detach()
    return code, data


def run(commands, spans_path=None):
    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        with tracer.span("startup.import"):
            import ogmirror.cli
        finish = spans.instrument(tracer)
    else:
        import ogmirror.cli
    main = ogmirror.cli.main
    out = sys.__stdout__.buffer
    for args in commands:
        with tracer.span("cli.main") if tracer else contextlib.nullcontext():
            code, data = run_command(main, args)
        header = {"exit": code, "bytes": len(data)}
        out.write(json.dumps(header).encode("ascii") + b"\n")
        out.write(data)
    out.flush()
    if tracer is not None:
        t_end = time.perf_counter()
        finish()
        tracer.write(spans_path, {"t0": T0, "t_end": t_end,
                                  "module": ogmirror.cli.__file__})


if __name__ == "__main__":
    run(json.loads(sys.argv[1]), sys.argv[2] if len(sys.argv) > 2 else None)
