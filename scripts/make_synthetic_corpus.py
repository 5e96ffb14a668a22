"""Generate a synthetic parallel corpus with gold annotations.

Writes six files into the output directory: original and corrected text
(one sentence per line), a CoNLL-U file for each side, an M2 file whose
edits carry the placeholder label UNK, and a wordlist covering every
alphabetic form in the generator vocabulary.  The corpus is deterministic
in the seed, so two runs with the same arguments agree byte for byte.

Example:

    python3 scripts/make_synthetic_corpus.py --out /tmp/corpus --size 500
    serrant retype --m2 /tmp/corpus/untyped.m2 \\
        --conllu-orig /tmp/corpus/orig.conllu --conllu-cor /tmp/corpus/cor.conllu
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# the corpus generator lives with the test suite and imports the package from src/
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

from synthgen import VOCAB, SyntheticCorpus  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="output directory, created if missing")
    parser.add_argument("--size", type=int, default=1000, help="number of sentence pairs")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    args = parser.parse_args(argv)

    if args.size < 1:
        parser.error("--size must be at least 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    corpus = SyntheticCorpus(args.size, seed=args.seed)
    files = {
        "orig.txt": corpus.orig_text,
        "cor.txt": corpus.cor_text,
        "orig.conllu": corpus.conllu_orig,
        "cor.conllu": corpus.conllu_cor,
        "untyped.m2": corpus.untyped_m2(),
        "wordlist.txt": "\n".join(
            sorted({entry[0].lower() for entry in VOCAB if entry[0].isalpha()})
        )
        + "\n",
    }
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    edit_count = sum(line.startswith("A ") for line in files["untyped.m2"].splitlines())
    print(f"wrote {args.size} sentence pairs ({edit_count} edits) to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
