"""Command-line front end.

Subcommands: diagrams, potential, restrict, verify, hasse.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 success (all checks pass),
1 verification failure, a reader that closed stdout early or Ctrl-C,
2 usage or parse error, or out of memory, a rank too large to index
included.  All output is deterministic: identical invocations produce
byte-identical bytes.

The front end uses the standard library alone.  `main(args, prog_name)`
parses one command line with argparse and runs one command; `main.commands`
maps each command name to a plain record (a `types.SimpleNamespace`) of its
`name` and `callback`, the callback read when the command runs, so a caller
may replace it.  Each command imports the layers it uses when it runs, so
`hasse` and `diagrams` load only the box calculus.
`run_checks` and `restrict_plucker` stay attributes of this module, loading
their layer on the first call, so a caller can still replace them here.
"""

import argparse
import json
import os
import sys
from functools import cache
from types import SimpleNamespace

from .diagrams import all_diagrams, digit_run, format_diagram, hasse_dot, parse_diagram


def run_checks(n):
    """checks.run_checks, its layer loaded on the first call."""
    from .checks import run_checks

    return run_checks(n)


def restrict_plucker(n, rows):
    """torus.restrict_plucker, its layer loaded on the first call."""
    from .torus import restrict_plucker

    return restrict_plucker(n, rows)


class UsageError(Exception):
    """A command line that parses but cannot run: exit 2 with the usage."""


def diagrams(n, fmt):
    """List all valid diagrams for the rank, in lexicographic order."""
    rows_list = all_diagrams(n)
    if fmt == "json":
        print(json.dumps(rows_list))
    else:
        print("\n".join(map(format_diagram, rows_list)))


def potential(n, fmt):
    """Print the n+2 superpotential terms in index order."""
    from .potential import (
        potential_to_json,
        potential_to_latex,
        potential_to_text,
        superpotential,
    )

    terms = superpotential(n)
    if fmt == "json":
        print(potential_to_json(terms))
    elif fmt == "latex":
        print(potential_to_latex(terms))
    else:
        print(potential_to_text(terms))


def restrict(n, diagram_text, fmt):
    """Restrict one Plücker variable to the torus chart."""
    try:
        rows = parse_diagram(n, diagram_text)
    except ValueError as err:
        raise UsageError(f"argument --diagram: {err}") from None
    restricted = restrict_plucker(n, rows)
    if fmt == "json":
        print(restricted.to_json())
    elif fmt == "latex":
        print(restricted.to_latex())
    else:
        print(restricted.to_text())


def verify(n, start, stop, fmt):
    """Run the full check battery for one rank or a range of ranks."""
    from .checks import all_passed

    if n is not None and (start is not None or stop is not None):
        raise UsageError("use either --n or --from/--to, not both")
    if n is not None:
        ranks = [n]
    elif start is not None and stop is not None:
        if stop < start:
            raise UsageError("--to must be at least --from")
        ranks = list(range(start, stop + 1))
    else:
        raise UsageError("provide --n or both --from and --to")

    failed = False
    document = []
    for rank in ranks:
        results = run_checks(rank)
        verified = all_passed(results)
        failed |= not verified
        if fmt == "json":
            document.append(
                {
                    "n": rank,
                    "checks": [
                        {
                            "name": result.name,
                            "i": result.index,
                            "pass": result.passed,
                            "detail": result.detail,
                        }
                        for result in results
                    ],
                    "verified": verified,
                }
            )
        else:
            _print_report(rank, results)
    if fmt == "json":
        print(json.dumps(document, indent=2))
    if failed:
        sys.exit(1)


def _print_report(rank, results):
    """Print and flush one rank's check lines."""
    failed = 0
    for result in results:
        index = "-" if result.index is None else result.index
        status = "PASS" if result.passed else "FAIL"
        print(f"CHECK {result.name} n={result.n} i={index} {status}")
        if not result.passed:
            failed += 1
            if result.detail:
                sys.stdout.flush()  # the detail follows its line where both streams meet
                print(f"  {result.detail}", file=sys.stderr)
    print(f"FAILED {failed} checks" if failed else f"VERIFIED n={rank}")
    sys.stdout.flush()


def hasse(n, fmt):
    """Emit the diagram poset as a DOT graph, edges labeled by added boxes."""
    sys.stdout.writelines(hasse_dot(n))


def _rank(text):
    """An --n, --from or --to value: a run of ASCII digits spelling at least 2."""
    try:
        value = digit_run(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if value < 2:
        raise argparse.ArgumentTypeError("rank must be at least 2")
    return value


# Each command and its output formats, the first the default.
_COMMANDS = {
    diagrams: ("text", "json"),
    potential: ("text", "json", "latex"),
    restrict: ("text", "json", "latex"),
    verify: ("text", "json"),
    hasse: ("dot",),
}


@cache
def _parsers(prog):
    """The command-line parser and each command's own parser, built once.

    Long options are never abbreviated; a repeated option keeps its last
    value.
    """
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Canonical mirror superpotentials for maximal orthogonal Grassmannians.",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(
        title="commands", dest="command", metavar="COMMAND", required=True
    )
    rank = {"type": _rank, "metavar": "N"}
    parsers = {}
    for callback, formats in _COMMANDS.items():
        parsers[callback.__name__] = command = subparsers.add_parser(
            callback.__name__,
            help=callback.__doc__,
            description=callback.__doc__,
            allow_abbrev=False,
        )
        if callback is verify:
            command.add_argument("--n", help="One rank.", **rank)
            command.add_argument("--from", dest="start", help="First rank.", **rank)
            command.add_argument("--to", dest="stop", help="Last rank.", **rank)
        else:
            command.add_argument(
                "--n", required=True, help="Rank parameter (at least 2).", **rank
            )
        if callback is restrict:
            command.add_argument(
                "--diagram", dest="diagram_text", required=True, metavar="ROWS",
                help="Row lengths, e.g. 1,2,1.",
            )
        command.add_argument(
            "--format", dest="fmt", choices=formats, default=formats[0]
        )
    return parser, parsers


def main(args=None, prog_name=None):
    """Run one command line, sys.argv[1:] by default.

    Returns when the command succeeds; any other outcome raises SystemExit
    with its exit code.  A usage error prints the usage and the error to
    stderr.
    """
    parser, parsers = _parsers(prog_name or "ogmirror")
    try:
        namespace, unknown = parser.parse_known_args(args)
        params = vars(namespace)
        command = main.commands[params.pop("command")]
        command_parser = parsers[command.name]
        if unknown:  # name them under the command's usage, not the top level's
            command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        _run(command, params, command_parser)
    except BrokenPipeError:
        # The reader closed stdout early (`hasse --n 14 | head -1`): exit 1
        # without a traceback, and let the interpreter's last flush of
        # what stdout still buffers go to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)


def _run(command, params, parser):
    """Call the command's current callback; out of memory is one line and exit 2."""
    try:
        command.callback(**params)
    except (MemoryError, OverflowError):
        # A rank past the machine's index size cannot size its first tuple or
        # range and raises OverflowError, which is running out of memory too.
        # Nothing else raises it here: the battery reports a packed field's
        # OverflowError as failed checks.
        pass  # report once the handler has let go of the frames holding memory
    except UsageError as err:
        parser.error(str(err))
    else:
        return
    finally:
        sys.stdout.flush()
    n, start, stop = (params.get(key) for key in ("n", "start", "stop"))
    ranks = f"rank {n}" if n is not None else f"ranks {start} to {stop}"
    print(f"Error: {command.name} ran out of memory at {ranks}", file=sys.stderr)
    sys.exit(2)


main.commands = {
    callback.__name__: SimpleNamespace(name=callback.__name__, callback=callback)
    for callback in _COMMANDS
}


if __name__ == "__main__":
    main()
