"""Print every function-body statement of src/svote that real traffic never reaches.

Traffic is each benchmark workload's configs (perfbench/workloads.py) at
config seed 1 and configs/*.cfg, run through `cli.run_experiment` under a
stdlib line trace. A statement is reached when a line event lands in its
lines. Run as `python3 tools/traffic_lines.py`; it prints `path:line: source`.
"""

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _statements(body):
    """The first line and the line range of each statement of a body, nested bodies included, nested functions not."""
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str):
            continue  # a docstring
        yield stmt.lineno, range(stmt.lineno, stmt.end_lineno + 1)
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            inner = [b for field in ("body", "orelse", "finalbody") for b in getattr(stmt, field, [])]
            yield from _statements(inner + [b for handler in getattr(stmt, "handlers", []) for b in handler.body])


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    from svote import cli
    from workloads import WORKLOADS

    package = Path(cli.__file__).resolve().parent
    hit: set[tuple[str, int]] = set()

    def line(frame, event, _arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, _event, _arg):
        return line if frame.f_code.co_filename.startswith(str(package)) else None

    texts = [text for workload in WORKLOADS.values() for text in workload.config_texts(1)]
    texts += [path.read_text() for path in sorted((ROOT / "configs").glob("*.cfg"))]
    with tempfile.TemporaryDirectory() as out:
        sys.settrace(call)
        try:
            for i, text in enumerate(texts):
                cli.run_experiment(cli.parse_config_text(text), f"{out}/{i}")
        finally:
            sys.settrace(None)

    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        functions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)]
        spans = dict(stmt for function in functions for stmt in _statements(function.body))
        lines = source.splitlines()
        for first in sorted(first for first, span in spans.items() if not any((str(path), n) in hit for n in span)):
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")


if __name__ == "__main__":
    main()
