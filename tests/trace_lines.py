"""Run the tests under a line tracer, and fail if a line of ``src/icmup``
never runs.

    PYTHONPATH=src python tests/trace_lines.py [pytest arguments]

The tracer is ``sys.settrace``, so it needs nothing past the standard
library, and it asks for line events only in frames whose code is in the
package.  A line counts as executable when the compiled module
has an instruction on it, and as run when the tracer saw a frame enter or
reach it.  Only code run in this process is seen, so a line that only a
fresh interpreter reaches is missed; ``ALLOWED`` names the one line that
runs only when ``cli.py`` is run as a script.

This judges line coverage alone.  Tracing slows the tests, so one with a
wall-clock bound may fail here; whether the tests pass is the untraced
run's to judge.  The exit code is 1 when a line outside ``ALLOWED`` never
ran, and 0 otherwise.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icmup"

# (file, stripped line) pairs no test runs in-process
ALLOWED = {("cli.py", "sys.exit(main())")}


def executable_lines(path: Path, source: str) -> set[int]:
    """The lines of ``source``, read from ``path``, that some instruction of
    its code is on."""
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's first instruction is on line 0, which no source has
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    ran: dict[Path, set[int]] = {}  # package file -> the lines seen
    tracers: dict[str, object] = {}  # co_filename -> its line tracer, if watched

    def tracer_for(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = Path(name).resolve()
            tracers[name] = (tracer_for(ran.setdefault(path, set()))
                             if path.parent == PACKAGE else None)
        local = tracers[name]
        if local is not None:
            local(frame, "line", arg)  # the line the frame enters on
        return local

    # the package as the tests will run it
    texts = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    wanted = {path: executable_lines(path, text) for path, text in texts.items()}
    import pytest  # before tracing: only the package's frames are of interest

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    missed = []
    for path, want in wanted.items():
        source = texts[path].splitlines()
        for line in sorted(want - ran.get(path, set())):
            text = source[line - 1].strip()
            if (path.name, text) not in ALLOWED:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    total = sum(map(len, wanted.values()))
    print(f"\nline trace: pytest exited {status}; of the {total} executable lines "
          f"of src/icmup, {len(missed)} never ran outside ALLOWED")
    for entry in missed:
        print(entry)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
