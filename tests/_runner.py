"""Run a command-line entry point in this process with its streams captured.

`CommandRunner().invoke(main, args)` calls `main(args, prog_name="ogmirror")`
with sys.stdout and sys.stderr replaced, and returns the exit code, each
stream's text, both streams in the order they were written (`output`) and
the exception that ended the call: None on success, the SystemExit of a
nonzero exit, or any other exception, which counts as exit code 1.
"""

import io
import sys
from typing import NamedTuple


class InvokeResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Capture(io.StringIO):
    """A text stream that also appends each write to a log shared with others."""

    def __init__(self, log):
        super().__init__()
        self._log = log

    def write(self, text):
        self._log.append(text)
        return super().write(text)


class CommandRunner:
    def invoke(self, main, args):
        log = []
        stdout, stderr = _Capture(log), _Capture(log)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = stdout, stderr
        exit_code, exception = 0, None
        try:
            main(args, prog_name="ogmirror")
        except SystemExit as exc:
            code = exc.code
            exit_code = code if isinstance(code, int) else (0 if code is None else 1)
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
        finally:
            sys.stdout, sys.stderr = saved
        return InvokeResult(
            exit_code, stdout.getvalue(), stderr.getvalue(), "".join(log), exception
        )
