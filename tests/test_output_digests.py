"""The bytes of every output, pinned by a checked-in manifest of SHA-256 digests.

Each setting runs the command line on the golden corpus and on a 200-pair
synthetic corpus and digests the M2 and the ``--report`` file it writes;
``stats`` adds its TSV and JSON output.  ``output_digests.sha256`` holds
the digests in ``sha256sum`` format.  A change that alters labels or
report bytes on purpose replaces the manifest lines with the ones the
failure message prints, and says why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from conftest import GOLDEN_ALL, golden_wordlist_words, write_golden_corpus
from serrant.cli import main
from synthgen import VOCAB, SyntheticCorpus

MANIFEST = Path(__file__).with_name("output_digests.sha256")

CLASSIFY = ["classify", "--orig", "{orig}", "--cor", "{cor}", "--wordlist", "{wordlist}"]
BOTH_CONLLU = ["--conllu-orig", "{conllu_orig}", "--conllu-cor", "{conllu_cor}"]
# retypes the M2 that the first setting writes
RETYPE = ["retype", "--m2", "{m2}", "--wordlist", "{wordlist}"]

# name -> the arguments of one run, with the paths still to fill in, and its report format
SETTINGS = {
    "classify-upos-ascii": ([*CLASSIFY, *BOTH_CONLLU], "tsv"),
    "classify-upos-unicode": ([*CLASSIFY, *BOTH_CONLLU, "--arrow", "unicode"], "json"),
    "classify-upos-feats-ascii": ([*CLASSIFY, *BOTH_CONLLU, "--granularity", "upos-feats"], "json"),
    "classify-upos-feats-unicode": (
        [*CLASSIFY, *BOTH_CONLLU, "--granularity", "upos-feats", "--arrow", "unicode"],
        "tsv",
    ),
    "classify-fallback": (CLASSIFY, "json"),
    "retype-conllu-orig": ([*RETYPE, "--conllu-orig", "{conllu_orig}"], "tsv"),
    "retype-fallback": (RETYPE, "json"),
}


def _golden_files(directory: Path) -> dict[str, str]:
    paths = write_golden_corpus(directory, GOLDEN_ALL)
    wordlist = directory / "wordlist.txt"
    wordlist.write_text("\n".join(sorted(golden_wordlist_words())) + "\n", encoding="utf-8")
    return {**paths, "wordlist": str(wordlist)}


def _synthetic_files(directory: Path) -> dict[str, str]:
    corpus = SyntheticCorpus(200, seed=19)
    texts = {
        "orig": corpus.orig_text,
        "cor": corpus.cor_text,
        "conllu_orig": corpus.conllu_orig,
        "conllu_cor": corpus.conllu_cor,
        "wordlist": "\n".join(sorted({e[0].lower() for e in VOCAB if e[0].isalpha()})) + "\n",
    }
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")
    return {name: str(directory / name) for name in texts}


def _manifest() -> dict[str, str]:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


@pytest.mark.parametrize("corpus", ["golden", "synthetic"])
def test_every_output_has_its_pinned_digest(tmp_path, capfdbinary, corpus):
    paths = (_golden_files if corpus == "golden" else _synthetic_files)(tmp_path)
    outputs = {}
    for setting, (template, report_format) in SETTINGS.items():
        out, report = tmp_path / f"{setting}.m2", tmp_path / f"{setting}.{report_format}"
        argv = [argument.format_map(paths) for argument in template]
        argv += ["--out", str(out), "--report", str(report), "--report-format", report_format]
        assert main(argv) == 0, setting
        paths.setdefault("m2", str(out))
        outputs[out.name], outputs[report.name] = out.read_bytes(), report.read_bytes()
    capfdbinary.readouterr()
    for report_format in ("tsv", "json"):
        argv = ["stats", "--m2", paths["m2"], "--report-format", report_format]
        assert main(argv) == 0
        outputs[f"stats.{report_format}"] = capfdbinary.readouterr().out

    digests = {
        f"{corpus}/{name}": hashlib.sha256(data).hexdigest() for name, data in outputs.items()
    }
    expected = {name: d for name, d in _manifest().items() if name.startswith(f"{corpus}/")}
    changed = "".join(
        f"{digest}  {name}\n" for name, digest in digests.items() if expected.get(name) != digest
    )
    assert digests == expected, f"outputs differ from {MANIFEST.name}; new digests:\n{changed}"
