"""The README's library examples run and print what the README says, its
safeguards paragraph names what the combination rules decide, and the cache
figures it quotes are those of the code."""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import serrant
from serrant.combine import _PAIR, _RULES, TENSE_LEMMAS, UNRELIABLE_TAGS
from serrant.sercl import render

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else len(README)]


def _blocks(section: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", section, flags=re.M | re.S)


def _quick_start_transcript() -> dict[str, str]:
    """Each ``$ command`` of the Quick start mapped to the output shown under it."""
    (transcript,) = _blocks(_section("Quick start"), "sh")
    outputs = {}
    for chunk in re.split(r"^\$ ", transcript, flags=re.M)[1:]:
        command, _, output = chunk.partition("\n")
        outputs[command] = output.rstrip("\n") + "\n"
    return outputs


def test_library_use_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    transcript = _quick_start_transcript()
    cor = transcript["cat cor.txt"]
    (tmp_path / "orig.txt").write_text(transcript["cat orig.txt"], encoding="utf-8")
    (tmp_path / "cor.txt").write_text(cor, encoding="utf-8")
    (tmp_path / "words.txt").write_text("\n".join(sorted(set(cor.split()))) + "\n", encoding="utf-8")
    (m2,) = [out for command, out in transcript.items() if command.startswith("serrant classify")]
    monkeypatch.chdir(tmp_path)

    high_level, low_level = _blocks(_section("Library use"), "python")
    capsys.readouterr()
    exec(compile(high_level, "README.md", "exec"), {})
    assert capsys.readouterr().out == m2
    exec(compile(low_level, "README.md", "exec"), {})
    assert capsys.readouterr().out == "1 2 R:Modal\n"


def test_the_safeguards_paragraph_names_what_each_rule_row_decides():
    (paragraph,) = [p for p in _section("Type labels").split("\n\n") if p.startswith("Safeguards")]
    text = " ".join(paragraph.split())
    for tag in UNRELIABLE_TAGS:
        assert re.search(rf"\b{tag}\b", text), tag
    for lemma in TENSE_LEMMAS:
        assert re.search(rf"\b{lemma} ", text), lemma
    assert 'the word "will"' in text
    # the rows that have a test and a body of their own: Other, Propn, Aux, Verb:Tense, Modal
    bodies = {
        body if isinstance(body, str) else render(body)
        for _, test, body in _RULES
        if test is not None and body is not _PAIR
    }
    assert len(bodies) == 5
    for body in bodies:
        assert f"`{body}`" in text, body


def test_every_error_example_names_a_file_and_a_line():
    # one format for every input error: serrant: SOURCE:LINE: message
    examples = re.findall(r"`(serrant: [^`]*)`", README)
    assert len(examples) >= 8
    for example in examples:
        assert re.match(r"serrant: [^:\s]+:(?:[0-9]+|N|LINE): \S", example), example


def _package_caches() -> dict[str, object]:
    """Every function of the package that carries an ``lru_cache``, by qualified name."""
    caches = {}
    for module in pkgutil.iter_modules(serrant.__path__):
        if module.name != "__main__":
            values = vars(importlib.import_module(f"serrant.{module.name}")).values()
            caches.update(
                (f"{value.__module__}.{value.__qualname__}", value)
                for value in values
                if hasattr(value, "cache_info")
            )
    return caches


# how to fill each cache with distinct entries, as the README counts them:
# one qualifier a side for a SErCl type, a new lowercase form for the memo
_FILLS = {
    "serrant.sercl.shared_type": "shared_type(('ADJ', (f'a{i}',)), ('ADV', (f'b{i}',)))",
    "serrant.ud._analyse": "_analyse(f'w{i}', False)",
}


def _megabytes_when_full(name: str) -> float:
    """What filling cache ``name`` allocates in a fresh interpreter, whose free lists are empty."""
    module, function = name.rsplit(".", 1)
    fill = (
        "import tracemalloc\n"
        f"from {module} import {function}\n"
        "tracemalloc.start()\n"
        f"for i in range({function}.cache_info().maxsize):\n"
        f"    {_FILLS[name]}\n"
        "print(tracemalloc.get_traced_memory()[0] / 1e6)\n"
    )
    src = str(Path(serrant.__file__).parent.parent)
    return float(
        subprocess.run(
            [sys.executable, "-c", fill],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )


def test_every_cache_figure_is_that_of_the_code():
    # a cache resized, added or deleted without the README, or the reverse, fails here
    text = " ".join(README.split())
    quoted = re.findall(r"a cache of at most ([0-9,]+) \w+, which takes about ([0-9.]+) MB", text)
    sizes = {int(size.replace(",", "")): float(megabytes) for size, megabytes in quoted}
    caches = _package_caches()
    assert sorted(caches) == sorted(_FILLS)
    assert sorted(sizes) == sorted(cache.cache_info().maxsize for cache in caches.values())
    for name, cache in caches.items():
        megabytes = sizes[cache.cache_info().maxsize]
        taken = _megabytes_when_full(name)
        assert abs(taken - megabytes) <= 0.1 * megabytes, (name, taken)
