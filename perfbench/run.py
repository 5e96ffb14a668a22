"""The serrant benchmark: end-to-end CLI runs, checked output, traced layers.

    python3 perfbench/run.py --workload short-classify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --smoke

Run it from the root of a serrant checkout.  For one workload it writes
the seeded inputs into ``.perfbench_tmp/``, then runs the ``serrant`` CLI
in a fresh child process per repetition, one at a time (a closed loop with
one client), until ``--seconds`` have passed.  Every output is checked
(see ``checks.py``).  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` half the
time goes to untraced repetitions and one more repetition runs traced
(see ``tracing.py``), and the JSON holds the per-layer metrics.  Lines
starting with ``#`` describe the machine and list every sample; one line
per workload summarises it in words.  ``--smoke`` runs every workload at a
tiny size and checks that every metric named in ``BENCHMARK.json`` is
emitted with its unit.  README.md in this directory describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_tmp"

END_TO_END = {"pairs_per_s": "pairs/s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 10
SMOKE_SIZES = {"short": 40, "retype-2ann": 40, "long": 3}
CHILD_TIMEOUT_S = 60


@dataclass
class Outcome:
    """Everything measured for one workload and seed."""

    pairs: int
    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    main_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    per_layer: dict[str, float] = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        if not self.main_s:
            return {}
        return {
            "pairs_per_s": statistics.median(self.pairs / s for s in self.main_s),
            "setup_s": statistics.median(self.setup_s),
            "cpu_s": statistics.median(self.cpu_s),
            "peak_rss_mb": statistics.median(self.peak_rss_mb),
        }


class Children:
    """Starts child.py processes with the checkout's ``src`` on the path."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def run(self, *args: str) -> tuple[dict | None, str]:
        """Run one child; return its result (None on failure) and its stderr."""
        result_path = self.work / "child.json"
        result_path.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "child.py"), str(result_path), *args]
        started_ns = time.monotonic_ns()
        process = subprocess.Popen(
            command,
            env=self.env,
            cwd=self.work,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return None, f"timed out after {CHILD_TIMEOUT_S}s"
        if process.returncode != 0 or not result_path.exists():
            return None, stderr.strip() or f"exit code {process.returncode}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = (result["imported_ns"] - started_ns) / 1e9
        return result, stderr


def measure(name: str, seed: int, seconds: float, trace: bool, size: int | None = None) -> Outcome:
    import workloads  # needs the checkout on sys.path, which main() checks

    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        argv = workloads.generate(workload, seed, work / "inputs", size)
        reference = checks.load_reference(workload.corpus, seed) if size is None else None
        if reference is None:
            print(f"# no reference labels for {workload.corpus} seed {seed}", file=sys.stderr)
        expect = checks.Expectation(workload.mode, work / "inputs", reference)
        outcome = Outcome(pairs=expect.pairs)
        children = Children(work)
        checked: dict[str, tuple[int, list[str]]] = {}

        def repetition(mode: str, *extra: str) -> dict | None:
            out, report = work / "out.m2", work / "report.tsv"
            cli = [*argv, "--out", str(out), "--report", str(report)]
            result, stderr = children.run(mode, *extra, "--", *cli)
            outcome.attempted += expect.pairs
            if result is None or result["exit_code"] != 0:
                outcome.failed += expect.pairs
                outcome.notes.append(f"{mode} repetition failed: {stderr[-500:]}")
                return None
            m2_text = out.read_text(encoding="utf-8")
            report_text = report.read_text(encoding="utf-8")
            digest = hashlib.sha256((m2_text + "\0" + report_text).encode("utf-8")).hexdigest()
            if digest not in checked:
                checked[digest] = expect.failures(m2_text, report_text)
                outcome.notes.extend(checked[digest][1])
            outcome.failed += checked[digest][0]
            outcome.setup_s.append(result["setup_s"])
            return result

        children.run("import")  # the first import also compiles the bytecode
        for _ in range(SETUP_SAMPLES):
            result, stderr = children.run("import")
            if result is None:
                raise SystemExit(f"perfbench: serrant.cli does not import: {stderr}")
            outcome.setup_s.append(result["setup_s"])

        budget = seconds / 2 if trace else seconds
        started = time.monotonic()
        while not outcome.main_s or time.monotonic() - started < budget:
            result = repetition("run")
            if result is None:
                break
            outcome.main_s.append(result["main_s"])
            outcome.cpu_s.append(result["cpu_s"])
            outcome.peak_rss_mb.append(result["peak_rss_mb"])

        if trace and outcome.main_s:
            spans_path = work / "spans.tsv"
            result = repetition("trace", str(spans_path))
            if result is not None:
                if result["untraced_sites"]:
                    print(f"# untraced sites: {result['untraced_sites']}", file=sys.stderr)
                spans, counts = tracing.read_spans(spans_path)
                untraced = statistics.median(outcome.main_s)
                outcome.per_layer, traced = tracing.summarize(spans, counts, untraced)
                covered = sum(
                    v for k, v in outcome.per_layer.items() if k.endswith(".self_s")
                ) + outcome.per_layer["pipeline.parallel.pool_s"]
                if abs(covered - traced) > 1e-3:
                    outcome.notes.append(
                        f"layer times cover {covered:.4f}s of the traced {traced:.4f}s"
                    )
    return outcome


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            models = [line.split(":", 1)[1].strip() for line in info if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _summary_line(name: str, outcome: Outcome) -> str:
    fail_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    parts = [f"{name}: {len(outcome.main_s)} runs of {outcome.pairs} pairs"]
    parts += [f"{k} {v:.6g} {END_TO_END[k]}" for k, v in outcome.end_to_end().items()]
    parts.append(f"fail_rate {fail_rate:.6g} ({outcome.failed}/{outcome.attempted} pairs)")
    return " | ".join(parts)


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {k: {"value": values[k], "unit": units[k]} for k in units if k in values}


def _result(outcomes: dict[str, Outcome], trace: bool) -> dict:
    metrics: dict[str, dict] = {}
    for name, outcome in outcomes.items():
        if trace:
            found = _metrics(outcome.per_layer, tracing.PER_LAYER)
        else:
            found = _metrics(outcome.end_to_end(), END_TO_END)
        prefix = "" if len(outcomes) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})
    failed = sum(o.failed for o in outcomes.values())
    return {
        "correct": failed == 0 and not any(o.notes for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": failed,
        "metrics": metrics,
    }


def smoke(seed: int) -> int:
    """Run every workload tiny, traced, and check every named metric is emitted."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        outcome = measure(name, seed, 0, trace=True, size=SMOKE_SIZES[workload.corpus])
        print(_summary_line(name, outcome))
        have = _metrics(outcome.end_to_end(), END_TO_END)
        have.update(_metrics(outcome.per_layer, tracing.PER_LAYER))
        problems += [f"{name}: {note}" for note in outcome.notes]
        if outcome.failed:
            problems.append(f"{name}: {outcome.failed} of {outcome.attempted} pairs failed")
        for metric, unit in want.items():
            if have.get(metric, {}).get("unit") != unit:
                problems.append(f"{name}: {metric} not emitted in {unit}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="input generator seed")
    parser.add_argument("--seconds", type=float, default=35, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not (SRC / "serrant" / "cli.py").is_file() or not (TESTS / "synthgen.py").is_file():
        print(f"perfbench: {ROOT} lacks src/serrant or tests/synthgen.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(TESTS), str(SRC)]
    import workloads

    print("# machine " + json.dumps(machine()))
    if args.smoke:
        return smoke(args.seed)
    if args.workload not in (*workloads.WORKLOADS, "all"):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        outcomes[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        print(_summary_line(name, outcomes[name]))
        samples = {k: getattr(outcomes[name], k) for k in ("main_s", "cpu_s", "setup_s")}
        print("# samples " + json.dumps(samples))
        for note in outcomes[name].notes:
            print(f"# {name}: {note}", file=sys.stderr)
    print(json.dumps(_result(outcomes, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
