import contextlib
import io
import sys
from types import SimpleNamespace

import pytest


class _Tee(io.StringIO):
    """A captured stream that also copies each write into a shared one."""

    def __init__(self, shared: io.StringIO) -> None:
        super().__init__()
        self.shared = shared

    def write(self, s: str) -> int:
        self.shared.write(s)
        return super().write(s)


class Runner:
    """Runs a command line entry point in this process: stdin is fed from
    a string, stdout and stderr are captured apart and interleaved in
    ``output``, and the exit code is read off ``SystemExit``."""

    def invoke(self, main, args, input=None):
        output = io.StringIO()
        out, err = _Tee(output), _Tee(output)
        code = 0
        stdin, sys.stdin = sys.stdin, io.StringIO(input or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        finally:
            sys.stdin = stdin
        return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(), output=output.getvalue())


@pytest.fixture
def runner():
    return Runner()
