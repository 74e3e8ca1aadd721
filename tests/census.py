"""Function-level call census over the program's entry points.

Run from the repository root::

    PYTHONPATH=src python -m tests.census --out DIR

Every entry point of :func:`entry_points` runs in a fresh interpreter
whose ``PYTHONPATH`` starts with a generated ``sitecustomize.py``.
That hook, loaded by every Python process the run starts (live site
servers and e2e child runs included), records each ``call`` event of
a function under ``src/repro`` through ``sys.setprofile`` and
``threading.setprofile``, and writes what it saw to one JSON file per
process at exit.

The report lists the top-level functions and methods of ``src/repro``
from the AST (a decorated function starts at its first decorator, as
its code object does; nested functions and ``Protocol`` stubs are
skipped) and writes:

* ``DIR/never_called.txt`` — the functions no process called, sorted
  by module, each with its line count, and a total;
* ``DIR/called.txt`` — the called ones by qualified name, which a
  later census can diff without depending on line numbers.

The whole run takes about five minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Written as ``sitecustomize.py``; ``{src}`` is the package directory
#: whose functions count and ``{calls}`` the directory the per-process
#: files go to.
HOOK = '''\
import atexit
import json
import sys
import tempfile
import threading

_SRC = {src!r}
_CALLS = {calls!r}
_codes = {{}}


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _codes:
            _codes[id(code)] = code


def _dump():
    sys.setprofile(None)
    called = sorted({{
        (code.co_filename, code.co_firstlineno)
        for code in list(_codes.values())
        if code.co_filename.startswith(_SRC)
    }})
    handle, path = tempfile.mkstemp(dir=_CALLS, suffix=".json")
    with open(handle, "w") as out:
        json.dump(called, out)


atexit.register(_dump)
threading.setprofile(_record)
sys.setprofile(_record)
'''

#: Per entry point; the longest, the paper tables, takes about 4 minutes.
ENTRY_TIMEOUT_S = 1200


def entry_points(out: Path) -> list[list[str]]:
    """Every production entry point, as argv lists run from ``ROOT``.

    The paper tables skip ``chaos_live_availability``: the live chaos
    episode below runs the same site processes.
    """
    from repro.bench.__main__ import EXPERIMENTS

    python = sys.executable
    tables = [name for name in EXPERIMENTS
              if name != "chaos_live_availability"]
    commands = [[python, "-m", "repro.bench", "--records", "2000", *tables]]
    for label, flags in (("chaos", ["--seeds", "3"]),
                         ("chaos-elasticity", ["--seeds", "2",
                                               "--elasticity"]),
                         ("chaos-live", ["--backend", "live",
                                         "--seeds", "1"])):
        commands.append([python, "-m", "repro.chaos", *flags,
                         "--out", str(out / label)])
    commands += [[python, str(path)]
                 for path in sorted((ROOT / "examples").glob("*.py"))]
    commands += [[python, str(ROOT / "benchmarks" / "e2e" / "run.py"),
                  "--workload", workload, "--seed", "2006",
                  "--seconds", "3", "--trace", "0", "--scale", "0.1"]
                 for workload in ("sim_query", "sim_ingest", "sim_mixed",
                                  "live_point")]
    return commands


@dataclass(frozen=True)
class Function:
    path: Path
    qualname: str
    first_line: int
    lines: int


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        (base.id if isinstance(base, ast.Name) else
         base.attr if isinstance(base, ast.Attribute) else None)
        == "Protocol"
        for base in node.bases)


def _functions_in(body: list[ast.stmt], path: Path,
                  prefix: str) -> list[Function]:
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno]
                        + [dec.lineno for dec in node.decorator_list])
            found.append(Function(path, prefix + node.name, first,
                                  node.end_lineno - first + 1))
        elif isinstance(node, ast.ClassDef) and not _is_protocol(node):
            found += _functions_in(node.body, path,
                                   prefix + node.name + ".")
    return found


def functions(package: Path) -> list[Function]:
    """The top-level functions and methods of every module under
    ``package``, sorted by module and line."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += _functions_in(tree.body, path, "")
    return found


def trace(commands: list[list[str]], package: Path, out: Path,
          cwd: Path) -> set[tuple[str, int]]:
    """Run each command under the hook; return every ``(file, line)``
    of a code object under ``package`` that some process entered."""
    hook, calls, logs = out / "hook", out / "calls", out / "logs"
    for directory in (hook, calls, logs):
        directory.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(HOOK.format(
        src=str(package.resolve()) + os.sep, calls=str(calls.resolve())))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(hook.resolve()), str(package.resolve().parent),
                      env.get("PYTHONPATH")]))
    for number, command in enumerate(commands):
        log = logs / f"{number:02d}.log"
        with open(log, "wb") as handle:
            done = subprocess.run(command, cwd=cwd, env=env, stdout=handle,
                                  stderr=subprocess.STDOUT,
                                  timeout=ENTRY_TIMEOUT_S)
        if done.returncode:
            tail = log.read_text(errors="replace")[-2000:]
            raise RuntimeError(
                f"{' '.join(command)} exited {done.returncode}:\n{tail}")
    called = set()
    for path in calls.glob("*.json"):
        called.update(map(tuple, json.loads(path.read_text())))
    return called


def report(package: Path, called: set[tuple[str, int]],
           out: Path) -> list[Function]:
    """Write ``never_called.txt`` and ``called.txt``; return the
    never-called functions."""
    every = functions(package)
    never = [fn for fn in every
             if (str(fn.path.resolve()), fn.first_line) not in called]
    lines = [f"{fn.path.relative_to(package.parent)}:{fn.first_line} "
             f"{fn.qualname} {fn.lines}" for fn in never]
    lines.append(f"total: {len(never)} of {len(every)} functions never "
                 f"called, {sum(fn.lines for fn in never)} lines")
    (out / "never_called.txt").write_text("\n".join(lines) + "\n")
    never_set = set(never)
    (out / "called.txt").write_text("".join(
        ".".join(fn.path.relative_to(package.parent).with_suffix("").parts)
        + f":{fn.qualname}\n" for fn in every if fn not in never_set))
    return never


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.census",
        description="List the functions of src/repro that no production "
                    "entry point calls.")
    parser.add_argument("--out", required=True, type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    called = trace(entry_points(out), PACKAGE, out, work)
    never = report(PACKAGE, called, out)
    print(f"{len(never)} functions never called, "
          f"{sum(fn.lines for fn in never)} lines: "
          f"{out / 'never_called.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
