"""Mutation check of the rule modules: every branch must decide a label.

Each mutant is ``src/serrant/combine.py``, ``base.py`` or ``sercl.py``
with one change: one comparison flipped (``==``/``!=``, ``in``/``not in``,
``is``/``is not``, ``<``/``<=``, ``>``/``>=``), one ``and``/``or`` swapped,
or one ``if`` test or ``lambda`` body forced to ``True`` or to ``False``
(``if TYPE_CHECKING:`` excepted).  A ``lambda`` is the test of a row of a
rule table, so each row is forced as an ``if`` branch is; a row that always
matches carries ``None`` and has no such mutant.  The rule tests run against
each mutant in a temporary copy of the tree; a mutant they all pass
survives.  The check exits 1 when a survivor is not listed in
``tests/surviving_mutants.txt``, or when a listed mutant no longer
survives, and 0 otherwise.  It tests one mutant per usable core at a time.

A mutant is named by its module, the function around it (or the name of
the module-level assignment around it, such as a rule table), the condition
it changes (as ``ast.unparse`` writes it) and the change, for example::

    combine.py _side: force False: end - start == 1
    combine.py _RULES: force True: s == 'PROPN'

A condition that occurs more than once in a function with the same change
gets `` (occurrence N)`` from the second on.  Each entry of the list is such
a line followed by indented lines that say why the mutant gives the same
output as the program for every input.

Example:

    python3 scripts/mutate_rules.py
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("combine.py", "base.py", "sercl.py")
SURVIVORS = ROOT / "tests" / "surviving_mutants.txt"

# the tests that pin the labels, and no others: the whole tier-1 suite kills
# no mutant that these leave alive, at a small fraction of its time
_CRITERIA = ("1_golden_corpus_types", "2_rule_example_types", "5_classifier_laws")
RULE_TESTS = (
    "tests/test_base.py",
    "tests/test_combine.py",
    "tests/test_sercl.py",
    "tests/test_output_digests.py",
    *(f"tests/test_acceptance.py::test_criterion_{name}" for name in _CRITERIA),
)

_FLIPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
}
_SYMBOLS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.In: "in",
    ast.NotIn: "not in",
    ast.Is: "is",
    ast.IsNot: "is not",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.And: "and",
    ast.Or: "or",
}


class Mutant(NamedTuple):
    module: str
    function: str
    condition: str
    mutation: str
    source: str  # the module's source with this one change

    @property
    def key(self) -> str:
        return f"{self.module} {self.function}: {self.mutation}: {self.condition}"


class _Points(ast.NodeVisitor):
    """Each mutation point in source order: (function, node, mutation, replacement)."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.points: list[tuple[str, ast.expr, str, str]] = []

    def _nested(self, node: ast.AST) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _nested

    def visit_Assign(self, node: ast.Assign) -> None:
        (target, *others) = node.targets
        if self.scope or others or not isinstance(target, ast.Name):
            self.generic_visit(node)
            return
        # a module-level table, such as the rules of combine.py, names the
        # mutants of its rows
        self.scope.append(target.id)
        self.generic_visit(node)
        self.scope.pop()

    def _add(self, node: ast.expr, mutation: str, replacement: str) -> None:
        self.points.append((".".join(self.scope) or "<module>", node, mutation, replacement))

    def visit_If(self, node: ast.If) -> None:
        if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
            self._add(node.test, "force True", "True")
            self._add(node.test, "force False", "False")
            self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._add(node.body, "force True", "True")
        self._add(node.body, "force False", "False")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for i, op in enumerate(node.ops):
            if type(op) in _FLIPS:
                flipped = _FLIPS[type(op)]
                ops = [*node.ops[:i], flipped(), *node.ops[i + 1 :]]
                mutation = f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[flipped]}"
                compare = ast.Compare(node.left, ops, node.comparators)
                self._add(node, mutation, ast.unparse(compare))
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        swapped = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        mutation = f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[type(swapped)]}"
        self._add(node, mutation, ast.unparse(ast.BoolOp(swapped, node.values)))
        self.generic_visit(node)


def mutants(source: str, module: str = "<string>") -> Iterator[Mutant]:
    """Every mutant of ``source``, in source order.

    The changed expression is written in parentheses, with the line breaks it
    spanned, so every other line keeps its text and its number.
    """
    data = source.encode("utf-8")  # ast offsets count UTF-8 bytes
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    visitor = _Points()
    visitor.visit(ast.parse(source))
    seen: Counter[tuple[str, str, str]] = Counter()
    for function, node, mutation, replacement in visitor.points:
        condition = ast.unparse(node)
        seen[function, condition, mutation] += 1
        occurrence = seen[function, condition, mutation]
        if occurrence > 1:
            condition += f" (occurrence {occurrence})"
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        text = "(" + replacement + "\n" * (node.end_lineno - node.lineno) + ")"
        mutated = data[:begin] + text.encode("utf-8") + data[end:]
        yield Mutant(module, function, condition, mutation, mutated.decode("utf-8"))


def rule_mutants() -> Iterator[Mutant]:
    """Every mutant of the rule modules."""
    for module in MODULES:
        yield from mutants((ROOT / "src" / "serrant" / module).read_text(encoding="utf-8"), module)


def listed_survivors(text: str) -> dict[str, str]:
    """The entries of a survivor list: each key line and its reason."""
    entries: dict[str, str] = {}
    key = None
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            if key is None:
                raise ValueError(f"a reason with no mutant before it: {line.strip()!r}")
            entries[key] = f"{entries[key]} {line.strip()}".strip()
        else:
            key = line
            if key in entries:
                raise ValueError(f"mutant listed twice: {key}")
            entries[key] = ""
    return entries


def _copy(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def _passes(tree: Path, timeout: float | None = None) -> bool:
    """Whether every rule test passes in ``tree``; a run past ``timeout`` fails."""
    # the same examples for every mutant: a fixed seed, and none kept from the last one
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    pytest = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command = [*pytest, "--hypothesis-seed=0", *RULE_TESTS]
    try:
        result = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def _survivors(tree: Path, batch: list[Mutant], timeout: float) -> list[Mutant]:
    survived = []
    for mutant in batch:
        path = tree / "src" / "serrant" / mutant.module
        original = path.read_text(encoding="utf-8")
        path.write_text(mutant.source, encoding="utf-8")
        try:
            if _passes(tree, timeout):
                survived.append(mutant)
        finally:
            path.write_text(original, encoding="utf-8")
    return survived


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    listed = listed_survivors(SURVIVORS.read_text(encoding="utf-8"))
    todo = list(rule_mutants())
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cores or 1, len(todo)))
    with tempfile.TemporaryDirectory(prefix="mutate_rules_") as scratch:
        trees = [_copy(Path(scratch) / str(i)) for i in range(workers)]
        began = time.perf_counter()
        if not _passes(trees[0]):
            print("the rule tests fail on the unmutated tree", file=sys.stderr)
            return 1
        timeout = 60 + 10 * (time.perf_counter() - began)  # a mutant that hangs counts as killed
        batches = [todo[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(workers) as pool:
            results = pool.map(lambda tree, batch: _survivors(tree, batch, timeout), trees, batches)
            survived = {mutant.key for result in results for mutant in result}
    unlisted = sorted(survived - listed.keys())
    killed = sorted(listed.keys() - survived)
    seconds = time.perf_counter() - began
    print(f"{len(todo)} mutants, {len(survived)} survive, {workers} at a time, {seconds:.0f} s")
    for key in unlisted:
        print(f"survives, not listed in {SURVIVORS.relative_to(ROOT)}: {key}")
    for key in killed:
        print(f"listed, but no longer survives: {key}")
    return 1 if unlisted or killed else 0


if __name__ == "__main__":
    sys.exit(main())
