"""Count the code lines of each module of a Python package.

A code line holds at least one token that is not part of a comment, a
docstring or a line break, so blank lines, comments and docstrings do not
count.  A docstring is a string that stands alone as a statement.  Prints
one ``count path`` line per module, sorted by path, then the total.

Example:

    python3 scripts/count_code_lines.py            # src/serrant
    python3 scripts/count_code_lines.py src/serrant tests
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tokens that carry no code by themselves
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the code tokens of the open logical line
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                lines.update(row for tok in statement for row in range(tok.start[0], tok.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "paths", nargs="*", default=[str(ROOT / "src" / "serrant")], help="files or directories"
    )
    args = parser.parse_args(argv)
    files = sorted(
        file
        for path in map(Path, args.paths)
        for file in (sorted(path.rglob("*.py")) if path.is_dir() else [path])
    )
    total = 0
    for file in files:
        count = code_lines(file.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {file}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
