"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests"), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from serrant import cli  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_smoke_emits_every_named_metric_with_its_unit():
    done = _run("--smoke")
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("smoke: ok")


def test_result_line_holds_exactly_the_contract_keys():
    done = _run("--workload", "long-classify", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "short-classify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_generators_are_seeded(tmp_path):
    for name, workload in workloads.WORKLOADS.items():
        first = workloads.generate(workload, 5, tmp_path / "a", size=6)
        again = workloads.generate(workload, 5, tmp_path / "b", size=6)
        other = workloads.generate(workload, 6, tmp_path / "c", size=6)
        for path_a, path_b, path_c in zip(first, again, other):
            if path_a.startswith(str(tmp_path)):
                a, b, c = (Path(p).read_text(encoding="utf-8") for p in (path_a, path_b, path_c))
                assert a == b, name
                assert a != c or path_a.endswith("wordlist.txt"), name


def test_long_corpus_has_deep_trees_and_spread_lengths(tmp_path):
    workloads.generate(workloads.WORKLOADS["long-classify"], 1, tmp_path)
    lengths = sorted(len(line.split(" ")) for line in (tmp_path / "orig.txt").read_text().splitlines())
    assert lengths[0] == workloads.LONG_MIN_TOKENS and lengths[-1] == workloads.LONG_MAX_TOKENS
    first_block = (tmp_path / "orig.conllu").read_text().split("\n\n")[0].split("\n")
    heads = [int(row.split("\t")[6]) for row in first_block]
    assert heads == list(range(len(heads)))


def test_two_annotator_m2_has_both_annotators_and_noops(tmp_path):
    workloads.generate(workloads.WORKLOADS["retype-2ann"], 2, tmp_path, size=200)
    records = checks.read_m2((tmp_path / "input.m2").read_text(encoding="utf-8"))
    annotators = {e.annotator for r in records for e in r.edits}
    assert annotators == {0, 1}
    assert any(e.is_noop for r in records for e in r.edits)
    assert all(e.label in ("UNK", "noop") for r in records for e in r.edits)


def _typed(tmp_path: Path, name: str) -> tuple[checks.Expectation, str, str]:
    workload = workloads.WORKLOADS[name]
    argv = workloads.generate(workload, 4, tmp_path, size=80)
    out, report = tmp_path / "out.m2", tmp_path / "report.tsv"
    assert cli.main([*argv, "--out", str(out), "--report", str(report)]) == 0
    expect = checks.Expectation(workload.mode, tmp_path, None)
    return expect, out.read_text(encoding="utf-8"), report.read_text(encoding="utf-8")


def test_checker_passes_real_output_and_catches_broken_output(tmp_path):
    expect, m2_text, report_text = _typed(tmp_path, "short-classify")
    assert expect.failures(m2_text, report_text)[0] == 0
    blocks = m2_text.split("\n\n")
    edited = next(i for i, b in enumerate(blocks) if "\nA " in b)
    lines = blocks[edited].split("\n")
    fields = lines[1].split("|||")
    wrong_span = [fields[0].split(" ")[0] + " " + str(int(fields[0].split(" ")[1]) + 1)] + fields[1:]
    for broken in (
        "|||".join([fields[0], "UNK"] + fields[2:]),  # untyped label
        "|||".join([fields[0], "X:Noun"] + fields[2:]),  # label outside the grammar
        "|||".join([fields[0], fields[1], "zzz"] + fields[3:]),  # correction does not re-apply
    ):
        damaged = blocks[:edited] + ["\n".join([lines[0], broken] + lines[2:])] + blocks[edited + 1 :]
        assert expect.failures("\n\n".join(damaged), report_text)[0] >= 1, broken
    moved = blocks[:edited] + ["\n".join([lines[0], "|||".join(wrong_span)] + lines[2:])] + blocks[edited + 1 :]
    assert expect.failures("\n\n".join(moved), report_text)[0] >= 1
    assert expect.failures("\n\n".join(blocks[:-2]) + "\n", report_text)[0] >= 1


def test_checker_guards_retype_invariants_and_reference(tmp_path):
    expect, m2_text, report_text = _typed(tmp_path, "retype-2ann")
    assert expect.failures(m2_text, report_text)[0] == 0
    swapped = m2_text.replace("|||0\n", "|||1\n", 1)
    assert expect.failures(swapped, report_text)[0] == 1
    digest = checks.label_digest(checks.read_m2(m2_text))
    expect.reference = digest
    assert expect.failures(m2_text, report_text)[0] == 0
    expect.reference = "0" * 16
    assert expect.failures(m2_text, report_text)[0] == expect.pairs


def test_self_times_partition_the_root():
    # cli [0, 100] > pipeline [10, 90] > align [20, 50], merge [60, 70]
    spans = [
        (3, 2, "alignment.align", 20, 50),
        (4, 2, "alignment.merge", 60, 70),
        (2, 1, "pipeline", 10, 90),
        (1, 0, tracing.ROOT, 0, 100),
    ]
    metrics, total = tracing.summarize(spans, {}, untraced_s=80e-9)
    assert total == 100e-9
    assert metrics["alignment.align.self_s"] == 30e-9
    assert metrics["pipeline.self_s"] == 40e-9
    assert metrics["cli.self_s"] == 20e-9
    assert metrics["alignment.align.calls"] == 1
    assert abs(metrics["trace.overhead_s"] - 20e-9) < 1e-15
    assert set(metrics) == set(tracing.PER_LAYER)
