"""The lines of src/heisenheat that tier-1 never runs, found with the standard library's `trace`.

Runs tier-1 (pytest over tests/, in-process) under `trace.Trace`, on the main
thread and on any thread started after it.
It then prints every line of src/heisenheat/*.py that starts a statement and
that no test ran; docstrings do not count.  A line left unreached on purpose is
listed in REASONS with why, and is printed with that reason.  Any other
unreached line is printed as "unlisted", and a REASONS entry that matches no
unreached line as "stale".  Exits 1 when tier-1 fails or a line is unlisted or
an entry stale, else 0.  Hypothesis draws can change which lines run, so the
list can differ between runs; a CI step that runs this script gates nothing.

    PYTHONPATH=src python tests/line_reach.py [extra pytest arguments]

Under `trace` tier-1 takes several times its usual wall time.  pytest does not
collect this file (its name does not start with test_).
"""

from __future__ import annotations

import ast
import dis
import functools
import os
import sys
import trace
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "heisenheat")

# (file in src/heisenheat, the line with its indentation stripped) -> why tier-1 does not run it
REASONS = {
    ("cli.py", "sys.exit(main())"): "entry_point: runs only as the installed console script, in a subprocess",
    ("cli.py", "entry_point()"): "runs only under python -m heisenheat.cli, in a subprocess",
}


def statement_lines(path: str) -> set[int]:
    """Lines where a statement's bytecode starts, in the module and every function and class in it,
    less the lines of docstrings."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines, codes = set(), [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        # line 0 is the module's RESUME, which no statement holds
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines - docstrings


@functools.cache
def outside_src(filename: str) -> bool:
    return not os.path.realpath(filename).startswith(SRC + os.sep)


def main(argv: list[str]) -> int:
    tracer = trace.Trace(count=1, trace=0)
    # only src/ is traced line by line.  trace's own ignoredirs rule caches its answer per module name, so
    # every package's __init__.py would take the answer of the first one seen, a standard library package
    tracer.ignore = types.SimpleNamespace(names=lambda filename, modulename: outside_src(filename))
    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", os.path.join(ROOT, "tests"), *argv]
    namespace = {"pytest": pytest, "args": args}
    # runctx, unlike runfunc, also sets the trace function of threads started during the run
    tracer.runctx("status = pytest.main(args)", namespace, namespace)
    reached = {(os.path.realpath(path), line) for path, line in tracer.results().counts}

    listed, unlisted, used = 0, 0, set()
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line in sorted(statement_lines(path)):
            if (os.path.realpath(path), line) in reached:
                continue
            key = (name, text[line - 1].strip())
            if key in REASONS:
                used.add(key)
            listed += key in REASONS
            unlisted += key not in REASONS
            print(f"src/heisenheat/{name}:{line}: {key[1]}  [{REASONS.get(key, 'unlisted')}]")
    stale = [key for key in REASONS if key not in used]
    for name, line in stale:
        print(f"stale: {name}: {line}")
    print(f"unreached: {listed} with a listed reason, {unlisted} unlisted; {len(stale)} stale entries; "
          f"tier-1 exit status {namespace['status']}")
    return int(namespace["status"] != 0 or unlisted > 0 or len(stale) > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
