"""Capture the label digests that ``checks.py`` compares outputs against.

    python3 perfbench/capture_reference.py --seeds 0-63

Run it from the root of a checkout of the commit whose labels are the
reference.  For every corpus and seed it generates the full-size inputs,
runs ``serrant.cli.main`` in process, checks the output structurally and
stores the SHA-256 of its label sequence in ``reference.json``, merged
with the digests already there.  Two worker processes share the seeds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from serrant import cli  # noqa: E402


def _digest(task: tuple[str, int]) -> tuple[str, int, str]:
    name, seed = task
    workload = workloads.WORKLOADS[name]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)
        argv = workloads.generate(workload, seed, work)
        out, report = work / "out.m2", work / "report.tsv"
        if cli.main([*argv, "--out", str(out), "--report", str(report)]) != 0:
            raise SystemExit(f"{name} seed {seed}: serrant failed")
        m2_text = out.read_text(encoding="utf-8")
        expect = checks.Expectation(workload.mode, work, None)
        failed, notes = expect.failures(m2_text, report.read_text(encoding="utf-8"))
        if failed:
            raise SystemExit(f"{name} seed {seed}: {failed} pairs fail the checks: {notes}")
        return workload.corpus, seed, checks.label_digest(checks.read_m2(m2_text))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range, such as 0-63")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    representative = {}
    for name, workload in workloads.WORKLOADS.items():
        representative.setdefault(workload.corpus, name)
    tasks = [(name, seed) for seed in range(first, last + 1) for name in representative.values()]
    table = json.loads(checks.REFERENCE_PATH.read_text(encoding="utf-8"))
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for corpus, seed, digest in pool.imap_unordered(_digest, tasks):
            table["digests"].setdefault(corpus, {})[str(seed)] = digest
    for corpus in table["digests"]:
        table["digests"][corpus] = dict(sorted(table["digests"][corpus].items(), key=lambda kv: int(kv[0])))
    table["source"] = run.machine()["src_sha256"]
    checks.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"captured {len(tasks)} digests for seeds {first}-{last}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
