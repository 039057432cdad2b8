"""Benchmark `chartsum run` end to end on seeded synthetic corpora.

One workload per process:

    python3 perfbench/run.py --workload wise-short --seed 1 --seconds 30 --trace 0

The workload's corpus is generated from --seed, then `chartsum.cli.main(["run",
...])` runs in this process as a closed loop with one client: one unrecorded
warm-up, then operations back to back until --seconds is spent (at least
three), with BLAS limited to one thread. The last line of stdout is one JSON
object: with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The traced run alternates traced and
untraced operations so that it can report the tracing overhead; spans are
installed from outside the package (see tracing.py).

Without --workload every workload runs, each in its own process, untraced
and then traced. --smoke does the same at tiny sizes so the harness cannot
rot; it checks outputs but its timings mean nothing.

Every operation is checked: exit code 0, and predictions.json/report.json
bytes identical to the warm-up's. The warm-up's outputs are checked for one
prediction per eval id and n_documents equal to the eval size. A traced run
also checks its span counts against counts derived from the inputs.

Records (environment, corpus shape, output sha256, every sample) are written
to .perfbench/ at the repository root.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"
OUTPUTS = ("predictions.json", "report.json")
MIN_SAMPLES = 3
SMOKE_SIZES = {"wise-short": (4, 2), "single-long": (3, 2), "score-bulk": (4, 12)}
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import chartsum.cli; "
    "print(time.perf_counter() - t)"
)

# Metrics of the untraced run (--trace 0), in BENCHMARK.json's end_to_end order.
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics, but not bounded: fail_rate is 0 when
# nothing fails (the JSON result carries it as attempted/failed), and output
# quality is fixed by the seed rather than measured. On single-long the
# undertrained model's ROUGE-1 swings by a factor of three between seeds and
# ROUGE-2 can be 0; division_avg_f1 is 0 for one-line single-model notes. The
# traced run reports the quality figures as outputs of the evaluate layer.
QUALITY_UNITS = {"rouge1_f1": "F1", "rouge2_f1": "F1", "rougeL_f1": "F1", "division_avg_f1": "F1"}


def _git_commit() -> str:
    """HEAD commit read from .git without running git (the checkout may not be a repo)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _environment() -> dict:
    import numpy as np

    from chartsum.rouge import lcs_backend

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "lcs_backend": lcs_backend(),
        "commit": _git_commit(),
    }


def _setup_seconds() -> float:
    """Time to import chartsum.cli, measured inside a fresh interpreter."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _operation(argv: list[str], out_dir: Path, reference: dict[str, bytes]) -> tuple[float, bool]:
    """One `chartsum run`, timed; ok when it exits 0 and reproduces the reference bytes."""
    import chartsum.cli as cli

    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, reported and counted
        traceback.print_exc()
        code = None
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"operation exited {code}: {sink.getvalue().strip()[-500:]}", file=sys.stderr)
        return elapsed, False
    for name, expected in reference.items():
        if (out_dir / name).read_bytes() != expected:
            print(f"operation output {name} differs from the warm-up's", file=sys.stderr)
            return elapsed, False
    return elapsed, True


def _check_outputs(outputs: dict[str, bytes], eval_ids: list[str]) -> list[str]:
    try:
        entries = json.loads(outputs["predictions.json"])["entries"]
        n_docs = json.loads(outputs["report.json"])[0]["n_documents"]
        _quality(outputs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed predictions.json or report.json: {exc!r}"]
    problems = []
    if sorted(entries) != sorted(eval_ids):
        problems.append(f"{len(entries)} predictions for {len(eval_ids)} eval ids")
    if n_docs != len(eval_ids):
        problems.append(f"report n_documents {n_docs} != eval size {len(eval_ids)}")
    return problems


def _loop(seconds: float, min_rounds: int, step) -> None:
    """Call step() until another round would overrun `seconds`, after at least min_rounds."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)
        now = time.perf_counter()
        if len(durations) >= min_rounds and now + statistics.median(durations) > deadline:
            return


def _quality(reference: dict[str, bytes]) -> dict[str, float]:
    """Corpus ROUGE F1 means and the division average from report.json (0 if none)."""
    if not reference:
        return dict.fromkeys(QUALITY_UNITS, 0.0)
    report = json.loads(reference["report.json"])[0]
    scores = report["scores"]
    return {
        "rouge1_f1": scores["rouge1"]["f1"],
        "rouge2_f1": scores["rouge2"]["f1"],
        "rougeL_f1": scores["rougeL"]["f1"],
        "division_avg_f1": report["division_average"],
    }


def _unit_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_workload(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    RECORDS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=RECORDS))
    try:
        return _run_in(work, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(
    work: Path, workload: workloads.Workload, seed: int, seconds: float, trace: bool
) -> dict:
    corpus = workloads.generate(workload, seed, work)
    train_rows = _read_rows(work / "train.csv")
    eval_rows = _read_rows(work / "eval.csv")
    eval_ids = [row["id"] for row in eval_rows]
    out_dir = work / "out"
    argv = [
        "run", "--approach", workload.approach, "--backend", workload.backend,
        "--train", str(work / "train.csv"), "--eval", str(work / "eval.csv"),
        "--seed", "0", "--epochs", str(workload.epochs), "--max-input", str(workloads.MAX_INPUT),
        "--out-dir", str(out_dir), *workload.flags,
    ]

    import chartsum.cli  # noqa: F401  (import cost is setup_s, not part of the warm-up)

    _, warm_ok = _operation(argv, out_dir, {})
    reference = {name: (out_dir / name).read_bytes() for name in OUTPUTS} if warm_ok else {}
    problems = _check_outputs(reference, eval_ids) if warm_ok else ["warm-up operation failed"]
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "environment": _environment(),
        "corpus": corpus,
        "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in reference.items()},
    }
    if problems:
        reference = {}  # every timed operation then counts as failed
    if trace:
        result = _traced(workload, argv, out_dir, reference, seconds, train_rows, eval_rows, record)
    else:
        result = _untraced(argv, out_dir, reference, seconds, record)
    problems += result.pop("problems")
    record["problems"] = problems
    record["correct"] = not problems and result["failed"] == 0
    suffix = "trace" if trace else "e2e"
    (RECORDS / f"{workload.name}-seed{seed}-{suffix}.json").write_text(
        json.dumps({**record, **result}, indent=2, sort_keys=True) + "\n"
    )
    return {"correct": record["correct"], **result}


def _untraced(argv, out_dir, reference, seconds, record) -> dict:
    samples, setup, oks = [], [], []

    def step():
        elapsed, ok = _operation(argv, out_dir, reference)
        samples.append(elapsed)
        oks.append(ok and bool(reference))
        # One set-up sample per operation spreads them over the whole run, so
        # their median is not taken from a single moment of machine load.
        setup.append(_setup_seconds())

    _loop(seconds, MIN_SAMPLES, step)
    failed = oks.count(False)
    values = {
        "run_s": statistics.median(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_rate": failed / len(samples),
        **_quality(reference),
    }
    q1, _, q3 = statistics.quantiles(samples, n=4)
    record["samples"] = {"run_s": samples, "setup_s": setup}
    record["quality"] = _quality(reference)
    units = {**END_TO_END_UNITS, "fail_rate": "ratio", **QUALITY_UNITS}
    lines = [f"{name:<16} {values[name]:.6g} {unit}" for name, unit in units.items()]
    lines[0] += f"  (median of {len(samples)}; quartiles {q1:.6g} {q3:.6g})"
    lines[1] += f"  (median of {len(setup)} fresh interpreters)"
    _print_human(record, lines)
    return {
        "attempted": len(samples),
        "failed": failed,
        "metrics": _unit_metrics(values, END_TO_END_UNITS),
        "problems": [],
    }


def _traced(workload, argv, out_dir, reference, seconds, train_rows, eval_rows, record) -> dict:
    import tracing

    expected = tracing.expected_counts(
        [row["note"] for row in train_rows],
        {row["id"]: row["note"] for row in eval_rows},
        json.loads(reference["predictions.json"])["entries"] if reference else {},
        workload.approach,
        workload.backend,
        workload.epochs,
    )
    untraced, traced, layers, oks, spans = [], [], [], [], []
    problems: dict[str, None] = {}  # ordered set
    units: dict[str, str] = {}

    def traced_op():
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            elapsed, ok = _operation(argv, out_dir, reference)
        traced.append(elapsed)
        oks.append(ok and bool(reference))
        if not oks[-1]:
            return
        triples, counts = tracing.layer_metrics(tracer, out_dir)
        layers.append({name: value for name, value, _ in triples})
        units.update({name: unit for name, _, unit in triples})
        for name, want in expected.items():
            if counts[name] != want:
                problem = f"trace self-check: {name} ran {counts[name]} times, inputs imply {want}"
                problems[problem] = None
        if not spans:
            spans.extend(tracer.spans)

    def untraced_op():
        elapsed, ok = _operation(argv, out_dir, reference)
        untraced.append(elapsed)
        oks.append(ok and bool(reference))

    def step():
        # Alternate which side runs first so drift does not favour one.
        order = (untraced_op, traced_op) if len(traced) % 2 == 0 else (traced_op, untraced_op)
        for op in order:
            op()

    _loop(seconds, 2, step)
    values = {
        name: statistics.median(layer[name] for layer in layers) for name in units
    } if layers else {}
    for name, value in _quality(reference).items():
        values[f"pipeline.evaluate.{name}"] = value
        units[f"pipeline.evaluate.{name}"] = QUALITY_UNITS[name]
    values["trace.run_s"] = statistics.median(traced)
    values["trace.untraced_run_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
    units.update({"trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_s": "s"})
    for problem in problems:
        print(problem, file=sys.stderr)
    _write_spans(RECORDS / f"{workload.name}-spans.jsonl", spans)
    record["samples"] = {"traced_run_s": traced, "untraced_run_s": untraced}
    record["expected_counts"] = expected
    lines = [f"{name:<40} {values.get(name, 0.0):.6g} {unit}" for name, unit in units.items()]
    _print_human(record, lines)
    return {
        "attempted": len(oks),
        "failed": oks.count(False),
        "metrics": _unit_metrics(values, units) if layers else {},
        "problems": list(problems),
    }


def _write_spans(path: Path, spans: list[list]) -> None:
    """Spans of the first traced operation: a line of names, then one
    [name index, start ns, end ns, parent index] line per span, times relative
    to the first span. One file per workload, overwritten by each traced run,
    because a score-bulk operation makes about 400k spans."""
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write(json.dumps({"names": names}) + "\n")
        for name, start, end, parent in spans:
            fh.write(f"[{index[name]},{round((start - origin) * 1e9)},"
                     f"{round((end - origin) * 1e9)},{parent}]\n")


def _print_human(record: dict, metric_lines: list[str]) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for line in metric_lines:
        print("  " + line)
    for name, digest in record["sha256"].items():
        print(f"  sha256 {name:<17} {digest}")
    for split, stats in record["corpus"].items():
        print(
            f"  corpus {split:<5} {stats['docs']} docs, dialogue tokens mean "
            f"{stats['dialogue_tokens_mean']:.1f} max {stats['dialogue_tokens_max']}, note tokens "
            f"mean {stats['note_tokens_mean']:.1f} max {stats['note_tokens_max']}, "
            f"{100 * stats['share_over_max_input']:.0f}% over --max-input"
        )
    print("  env " + ", ".join(f"{k} {v}" for k, v in env.items()))


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    correct = True
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--smoke"] if smoke else []),
                                  capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exited {proc.returncode}", file=sys.stderr)
                correct = False
                continue
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            results.setdefault(name, {})["per_layer" if trace else "end_to_end"] = result["metrics"]
    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"summary-seed{seed}.json").write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="workload to run (default: every workload, each in its own process)")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny corpora; checks only")
    args = parser.parse_args(argv)

    if not (SRC / "chartsum" / "cli.py").is_file():
        print(f"error: no chartsum sources under {SRC}", file=sys.stderr)
        return 2
    # Before numpy loads: one BLAS thread. On these small matrices a second
    # thread mostly spins: on single-long it saved about 7% of wall time for
    # twice the CPU time, and it doubles exposure to other load on the machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.workload is None:
        return run_all(args.seed, args.seconds, args.smoke)
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        n_train, n_eval = SMOKE_SIZES[workload.name]
        workload = dataclasses.replace(workload, n_train=n_train, n_eval=n_eval, epochs=1)
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
