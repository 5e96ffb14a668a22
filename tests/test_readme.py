"""The README's library examples run and print what the README says, and its
safeguards paragraph names what the combination rules decide."""

from __future__ import annotations

import re
from pathlib import Path

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
