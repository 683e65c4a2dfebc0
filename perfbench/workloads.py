"""Workload definitions: the CLI commands each iteration runs, and the gates
that decide whether each command's output is correct.

Every gate is independent of the program under test: stdout must match the
sha256 pinned from the seed commit (``pins.json``), and restrictions are
additionally checked against an integer-only count of admissible
subsequences that shares no code with ``ogmirror``.
"""

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

RESTRICT_RANK = 9
RESTRICT_COMMANDS = 32
FORMATS = ("text", "json", "latex")

WORKLOADS = ("verify-sweep", "restrict-n9", "poset-build")


# ---------------------------------------------------------------------------
# Independent oracle: integer path counts over the staircase reading word.


def _label(n, r, c):
    # Staircase cell labels: 1 bottom-left, constant along up-right
    # diagonals, n+1 / n alternating down the main diagonal.
    if c < r:
        return n - r + c
    return n + 1 if r % 2 == 1 else n


def _grow(n, rows, label):
    """rows with one box of this label added, or None; at most one spot fits."""
    found = None
    for r in range(1, n + 1):
        c = rows[r - 1] + 1
        if c > r or _label(n, r, c) != label:
            continue
        if r >= 2 and rows[r - 2] < min(c, r - 1):
            continue
        if found is not None:
            raise RuntimeError(f"label {label} fits twice in {rows}")
        found = rows[: r - 1] + (c,) + rows[r:]
    return found


def subsequence_counts(n):
    """Number of admissible subsequences of the reading word, per diagram.

    The reading word lists the staircase cells row by row, left to right; a
    subsequence is admissible when adding its labels one by one, each where
    it fits, builds the diagram.  Each such subsequence is one monomial of
    the torus restriction, with coefficient 1.
    """
    state = {(0,) * n: 1}
    for r in range(1, n + 1):
        for c in range(1, r + 1):
            label = _label(n, r, c)
            grown_state = dict(state)
            for rows, count in state.items():
                grown = _grow(n, rows, label)
                if grown is not None:
                    grown_state[grown] = grown_state.get(grown, 0) + count
            state = grown_state
    return state


def format_rows(rows):
    return ",".join(str(c) for c in rows)


# ---------------------------------------------------------------------------
# Commands.


def restrict_plan(counts):
    """Every rank-9 diagram with its format, in 32 strata of equal size.

    Diagrams are sorted by restriction size and cut into 32 strata; stratum k
    renders in FORMATS[k % 3].  A seed draws one diagram per stratum, so the
    rendered volume, and with it the iteration time, varies little between
    seeds while every diagram stays reachable.
    """
    ordered = sorted(counts, key=lambda rows: (counts[rows], rows))
    size = len(ordered) // RESTRICT_COMMANDS
    return [
        [(rows, FORMATS[k % len(FORMATS)]) for rows in ordered[k * size:(k + 1) * size]]
        for k in range(RESTRICT_COMMANDS)
    ]


def restrict_args(rows, fmt):
    return ["restrict", "--n", str(RESTRICT_RANK), "--diagram", format_rows(rows),
            "--format", fmt]


def commands(workload, seed, counts):
    """The CLI argument lists one iteration of the workload runs, in order."""
    if workload == "verify-sweep":
        return [["verify", "--from", "2", "--to", "8"]]
    if workload == "poset-build":
        return [
            ["hasse", "--n", "13"],
            ["diagrams", "--n", "13", "--format", "json"],
            ["potential", "--n", "18", "--format", "json"],
            ["potential", "--n", "18", "--format", "latex"],
        ]
    if workload == "restrict-n9":
        rng = random.Random(seed)
        picks = [rng.choice(stratum) for stratum in restrict_plan(counts)]
        rng.shuffle(picks)
        return [restrict_args(rows, fmt) for rows, fmt in picks]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Gates.  Each returns None when the output is correct, else a reason.


def command_key(args):
    return " ".join(args)


def load_pins():
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _restriction_terms(fmt, text):
    """(coefficient-one flags, factor counts) of each rendered term."""
    if fmt == "json":
        terms = json.loads(text)
        return [
            (t["coefficient"] == 1 and all(e == 1 for e in t["exponents"].values()),
             len(t["exponents"]))
            for t in terms
        ]
    if text == "1":
        return [(True, 0)]
    plus, minus, factor_sep, prefix = {
        "text": (" + ", "−", "*", "a["),
        "latex": (" + ", " - ", " ", "a_{"),
    }[fmt]
    if minus in text:
        return [(False, 0)]
    out = []
    for chunk in text.split(plus):
        factors = chunk.split(factor_sep)
        ok = all(f.startswith(prefix) and "^" not in f for f in factors)
        out.append((ok, len(factors)))
    return out


def check_restriction(rows, fmt, text, counts):
    """Term count equals the subsequence count; coefficients and exponents 1."""
    terms = _restriction_terms(fmt, text)
    expected = counts[rows]
    if len(terms) != expected:
        return f"{len(terms)} terms, oracle counts {expected} subsequences"
    boxes = sum(rows)
    for ok, factors in terms:
        if not ok:
            return "a coefficient or exponent differs from 1"
        if factors != boxes:
            return f"a term has {factors} factors for {boxes} boxes"
    return None


def check_verify(text, first, last):
    lines = text.splitlines()
    for rank in range(first, last + 1):
        if f"VERIFIED n={rank}" not in lines:
            return f"no VERIFIED line for n={rank}"
    if any(line.startswith("CHECK ") and not line.endswith(" PASS") for line in lines):
        return "a CHECK line did not pass"
    return None


def check_command(args, exit_code, stdout, pins, counts):
    """Gate one command's result: exit 0, pinned bytes, and content checks."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    text = stdout.decode("utf-8").rstrip("\n")
    reason = None
    if args[0] == "verify":
        reason = check_verify(text, int(args[2]), int(args[4]))
    elif args[0] == "restrict":
        rows = tuple(int(c) for c in args[4].split(","))
        reason = check_restriction(rows, args[6], text, counts)
    if reason is None and pins.get(command_key(args)) != hashlib.sha256(stdout).hexdigest():
        reason = "stdout differs from the pinned seed output"
    return reason
