#!/usr/bin/env python
"""Which ``src/repro`` functions a set of runs reached, and which none did.

Usage::

    python scripts/reach.py run --trace-dir D -- CMD [ARG ...]
    python scripts/reach.py report --trace-dir D PATH [PATH ...]

``run`` executes CMD with a generated ``sitecustomize.py`` first on
``PYTHONPATH``, so CMD and every Python process it starts (subprocesses,
spawned and forked workers) record each function under ``src/repro`` the
first time it is called: its file, ``co_name`` and first line, one
tab-separated line per function in ``D/reach-<pid>.tsv``. The hook is
``sys.setprofile`` plus ``threading.setprofile``. Each line is written
and flushed when the function is first seen, and a forked child switches
to its own file (``os.register_at_fork``): pool workers leave through
``os._exit``, which would lose an at-exit dump. ``run`` sets no
``REPRO_*`` variable, so perfbench runs under it unchanged. It exits with
CMD's status. Several runs may share one trace directory; the report
takes their union.

``report`` reads every function and method defined at module or class
level under PATH (files or directories, parsed with :mod:`ast`; nested
functions count within their parent) and lists those that no trace in D
names, with their line counts and a total. A function that never ran in
any entry point is a deletion candidate, not a verdict: failure paths and
opt-in flags are listed too.

Example, the smoke entry points (see the verify skill for the full list)::

    PYTHONPATH=src python scripts/reach.py run --trace-dir /tmp/reach -- \\
        python -m repro.serve.gateway --selfcheck --shards 4
    PYTHONPATH=src python scripts/reach.py run --trace-dir /tmp/reach -- \\
        python -m repro.experiments.run_all --profile smoke
    python scripts/reach.py report --trace-dir /tmp/reach src/repro/nn
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
from typing import Iterator, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src", "repro")

# One trace entry: (real path, first line, co_name).
Entry = Tuple[str, int, str]

_SITECUSTOMIZE = '''\
"""Generated by scripts/reach.py: record each function under {roots[0]!r}."""
import os
import sys
import threading

_ROOTS = {roots!r}
_DIR = {trace_dir!r}
_seen = set()
_kept = []  # seen code objects stay alive, so their ids are never reused
_file = None


def _record(code):
    global _file
    if _file is None:
        _file = open(os.path.join(_DIR, "reach-%d.tsv" % os.getpid()), "a", buffering=1)
    _file.write("%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_name))


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    key = id(code)
    if key in _seen:
        return
    _seen.add(key)
    _kept.append(code)
    if code.co_filename.startswith(_ROOTS):
        _record(code)


def _after_fork():
    global _file
    _file = None  # the child writes its own file; the parent's lines stay


os.register_at_fork(after_in_child=_after_fork)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def install(trace_dir: str) -> str:
    """Write the hook into ``trace_dir/site`` and return that directory."""
    site = os.path.join(trace_dir, "site")
    os.makedirs(site, exist_ok=True)
    roots = tuple(
        sorted({os.path.abspath(SOURCE_ROOT) + os.sep, os.path.realpath(SOURCE_ROOT) + os.sep})
    )
    source = _SITECUSTOMIZE.format(roots=roots, trace_dir=os.path.realpath(trace_dir))
    with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
        handle.write(source)
    return site


def run(trace_dir: str, command: List[str]) -> int:
    """Run ``command`` with the hook on ``PYTHONPATH``; return its exit status."""
    site = install(trace_dir)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = site + (os.pathsep + existing if existing else "")
    return subprocess.call(command, env=env)


def traced(trace_dir: str) -> Set[Entry]:
    """The union of every trace file in ``trace_dir``."""
    seen: Set[Entry] = set()
    for path in glob.glob(os.path.join(trace_dir, "reach-*.tsv")):
        with open(path) as handle:
            for line in handle:
                filename, first_line, name = line.rstrip("\n").split("\t")
                seen.add((os.path.realpath(filename), int(first_line), name))
    return seen


def _python_files(paths: List[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isdir(path):
            for directory, _subdirs, files in sorted(os.walk(path)):
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(directory, name)
        else:
            yield path


def definitions(path: str) -> Iterator[Tuple[str, int, int, str]]:
    """``(qualified name, first line, line count, co_name)`` of each function
    or method defined at module or class level in ``path``.

    The first line is the code object's: a decorated function starts at
    its first decorator.
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                lines = node.end_lineno - first + 1
                yield f"{prefix}{node.name}", first, lines, node.name

    yield from walk(tree.body, "")


def report(trace_dir: str, paths: List[str]) -> List[str]:
    """Report lines: one per function no trace names, then the total."""
    seen = traced(trace_dir)
    rows = []
    functions = unreached = total_lines = unreached_lines = 0
    for path in _python_files(paths):
        real = os.path.realpath(path)
        for qualname, first, lines, name in definitions(path):
            functions += 1
            total_lines += lines
            if (real, first, name) not in seen:
                unreached += 1
                unreached_lines += lines
                rows.append(f"{os.path.relpath(path)}:{first}  {qualname}  {lines} lines")
    rows.append(
        f"{unreached} of {functions} functions ({unreached_lines} of "
        f"{total_lines} lines) ran in no trace"
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run CMD under the trace hook")
    run_parser.add_argument("--trace-dir", required=True)
    run_parser.add_argument("cmd", nargs=argparse.REMAINDER, help="-- CMD [ARG ...]")
    report_parser = commands.add_parser("report", help="list functions no trace names")
    report_parser.add_argument("--trace-dir", required=True)
    report_parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "run":
        command = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
        if not command:
            parser.error("run needs a command after --")
        return run(args.trace_dir, command)
    for row in report(args.trace_dir, args.paths):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
