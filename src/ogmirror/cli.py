"""Command-line front end.

Subcommands: diagrams, potential, restrict, verify, hasse.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 success (all checks pass),
1 verification failure, 2 usage or parse error, or out of memory.  All
output is deterministic: identical invocations produce byte-identical bytes.

Each command imports the layers it uses when it runs, so `hasse` and
`diagrams` load only the box calculus.  `run_checks` and `restrict_plucker`
stay attributes of this module, loading their layer on the first call, so a
caller can still replace them here.
"""

import json
import sys

import click

from .diagrams import all_diagrams, format_diagram, hasse_dot, parse_diagram


def run_checks(n):
    """checks.run_checks, its layer loaded on the first call."""
    from .checks import run_checks

    return run_checks(n)


def restrict_plucker(n, rows):
    """torus.restrict_plucker, its layer loaded on the first call."""
    from .torus import restrict_plucker

    return restrict_plucker(n, rows)


def _validate_rank(ctx, param, value):
    if value is not None and value < 2:
        raise click.BadParameter("rank must be at least 2")
    return value


_rank_option = click.option(
    "--n", "n", type=int, required=True, callback=_validate_rank,
    help="Rank parameter (at least 2).",
)


@click.group()
def main():
    """Canonical mirror superpotentials for maximal orthogonal Grassmannians."""


@main.command()
@_rank_option
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def diagrams(n, fmt):
    """List all valid diagrams for the rank, in lexicographic order."""
    rows_list = all_diagrams(n)
    if fmt == "json":
        click.echo(json.dumps(rows_list))
    else:
        click.echo("\n".join(map(format_diagram, rows_list)))


@main.command()
@_rank_option
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "latex"]), default="text"
)
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
        click.echo(potential_to_json(terms))
    elif fmt == "latex":
        click.echo(potential_to_latex(terms))
    else:
        click.echo(potential_to_text(terms))


@main.command()
@_rank_option
@click.option("--diagram", "diagram_text", required=True, help="Row lengths, e.g. 1,2,1.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "latex"]), default="text"
)
def restrict(n, diagram_text, fmt):
    """Restrict one Plücker variable to the torus chart."""
    try:
        rows = parse_diagram(n, diagram_text)
    except ValueError as err:
        raise click.BadParameter(str(err), param_hint="'--diagram'") from None
    restricted = restrict_plucker(n, rows)
    if fmt == "json":
        click.echo(restricted.to_json())
    elif fmt == "latex":
        click.echo(restricted.to_latex())
    else:
        click.echo(restricted.to_text())


@main.command()
@click.option("--n", "n", type=int, callback=_validate_rank)
@click.option("--from", "start", type=int, callback=_validate_rank)
@click.option("--to", "stop", type=int, callback=_validate_rank)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def verify(n, start, stop, fmt):
    """Run the full check battery for one rank or a range of ranks."""
    from .checks import all_passed

    if n is not None and (start is not None or stop is not None):
        raise click.UsageError("use either --n or --from/--to, not both")
    if n is not None:
        ranks = [n]
    elif start is not None and stop is not None:
        if stop < start:
            raise click.UsageError("--to must be at least --from")
        ranks = list(range(start, stop + 1))
    else:
        raise click.UsageError("provide --n or both --from and --to")

    reports = [(rank, run_checks(rank)) for rank in ranks]
    if fmt == "json":
        document = [
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
                "verified": all_passed(results),
            }
            for rank, results in reports
        ]
        click.echo(json.dumps(document, indent=2))
    else:
        for rank, results in reports:
            for result in results:
                index = "-" if result.index is None else result.index
                status = "PASS" if result.passed else "FAIL"
                click.echo(f"CHECK {result.name} n={result.n} i={index} {status}")
                if not result.passed and result.detail:
                    click.echo(f"  {result.detail}", err=True)
            failed = sum(1 for result in results if not result.passed)
            if failed:
                click.echo(f"FAILED {failed} checks")
            else:
                click.echo(f"VERIFIED n={rank}")
    if any(not all_passed(results) for _, results in reports):
        sys.exit(1)


@main.command()
@_rank_option
@click.option("--format", "fmt", type=click.Choice(["dot"]), default="dot")
def hasse(n, fmt):
    """Emit the diagram poset as a DOT graph, edges labeled by added boxes."""
    for chunk in hasse_dot(n):
        click.echo(chunk, nl=False)


def _exit_2_when_out_of_memory(command):
    """Turn a MemoryError in the command into one stderr line and exit 2."""
    callback = command.callback

    def guarded(**params):
        try:
            return callback(**params)
        except MemoryError:
            pass  # report once the handler has let go of the frames holding memory
        n, start, stop = (params.get(key) for key in ("n", "start", "stop"))
        ranks = f"rank {n}" if n is not None else f"ranks {start} to {stop}"
        click.echo(f"Error: {command.name} ran out of memory at {ranks}", err=True)
        sys.exit(2)

    command.callback = guarded


for _command in main.commands.values():
    _exit_2_when_out_of_memory(_command)


if __name__ == "__main__":
    main()
