"""Single `chartsum` executable: section splitting, training, prediction, scoring, reports.

Exit codes: 0 success, 1 bad flag or flag value, 2 runtime error (a missing file
or any malformed input file). Diagnostics go to stderr; data goes to stdout or
the requested output path.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict
from io import StringIO
from pathlib import Path

from .corpus import (
    APPROACH_TAGS,
    Corpus,
    MalformedFile,
    PredictionSet,
    load_corpus,
    load_predictions,
    predictions_text,
    save_predictions,
)
from .errors import ChartsumError
from .pipeline import (
    BACKEND_KINDS,
    ApproachConfig,
    BackendSpec,
    MissingReference,
    TinyLsgSummarizer,
    evaluate,
    report,
    round4,
    run_approach,
    run_report_from_dict,
    scores_to_dict,
    train_tiny_lsg,
)
from .rouge import corpus_rouge
from .sections import Section, UnknownSection, canonical_header, segment_note
from .tinylsg import LsgConfig, ModelConfig, TrainConfig, load_checkpoint, save_model


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; this toolkit reserves 2 for runtime errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends a flag's default to its help once, and only when there is one to state.

    Required flags, flags defaulting to None and help text that already names
    its default get nothing appended.
    """

    def _get_help_string(self, action):
        text = action.help or ""
        if action.required or action.default is None or "(default" in text:
            return text
        return super()._get_help_string(action)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# glibc's mallopt parameters, and the value both take: glibc's own 64-bit cap
# for its dynamic mmap threshold, far above any tiny-lsg temporary.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_THRESHOLD = 32 * 1024 * 1024


@functools.cache
def _keep_freed_memory() -> tuple[int, ...]:
    """Keep freed heap memory in the process instead of returning it to the kernel.

    By default glibc trims the heap and unmaps large blocks as soon as they are
    freed, so each large numpy temporary of a tiny-lsg step faults its pages in
    again. Raising the trim and mmap thresholds to `_MALLOC_THRESHOLD` keeps
    those pages for reuse. Returns what each `mallopt` call returned (1 on
    success); a no-op returning () when the C library is not glibc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return ()
    except (AttributeError, ValueError, OSError):  # no confstr, or not a glibc name
        return ()
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return tuple(
        mallopt(param, _MALLOC_THRESHOLD) for param in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD)
    )


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _parse_columns(spec: str | None) -> dict[str, str] | None:
    if spec is None:
        return None
    columns = {}
    for item in spec.split(","):
        canonical, sep, actual = item.partition("=")
        if not sep or not canonical.strip() or not actual.strip():
            raise ValueError(f"--columns expects canonical=actual pairs, got {item!r}")
        columns[canonical.strip()] = actual.strip()
    return columns


def _load(path: str, columns: str | None) -> Corpus:
    """The corpus at `path`: JSONL for a `.jsonl` or `.ndjson` name, CSV otherwise."""
    fmt = "jsonl" if path.endswith((".jsonl", ".ndjson")) else "csv"
    return load_corpus(path, fmt, _parse_columns(columns))


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--columns", default=None,
                   help="remap corpus columns, e.g. id=encounter_id,dialogue=src,note=tgt")


# Every flag default that a config field has is read from that field.
_DEFAULT = BackendSpec()


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    model, train = _DEFAULT.model, _DEFAULT.train
    p.add_argument("--d-model", type=int, default=model.d_model, help="embedding width")
    p.add_argument("--heads", type=int, default=model.n_heads, help="attention heads")
    p.add_argument("--enc-layers", type=int, default=model.n_layers_enc, help="encoder layers")
    p.add_argument("--dec-layers", type=int, default=model.n_layers_dec, help="decoder layers")
    p.add_argument("--d-ff", type=int, default=model.d_ff, help="feed-forward width")
    p.add_argument("--lr", type=float, default=train.initial_lr, help="initial learning rate")
    p.add_argument("--epochs", type=int, default=train.epochs, help="training epochs")
    p.add_argument("--batch-size", type=int, default=train.batch_size,
                   help="examples per update")
    p.add_argument("--max-summary-tokens", type=_positive_int,
                   default=_DEFAULT.max_summary_tokens, help="decode length cap")


def _add_mask_flags(p: argparse.ArgumentParser) -> None:
    lsg = _DEFAULT.lsg
    p.add_argument("--block", type=int, default=lsg.block_size,
                   help="local attention block size")
    p.add_argument("--stride", type=int, default=lsg.sparsity_stride,
                   help="sparse key stride (0 disables)")
    p.add_argument("--global", dest="num_global", type=int, default=lsg.num_global,
                   help="number of global tokens")
    p.add_argument("--radius", type=int, default=lsg.local_radius,
                   help="adjacent-block reach")
    p.add_argument("--max-input", type=int, default=lsg.max_input_tokens,
                   help="source token cap")


def _backend_from_args(args, **fields) -> BackendSpec:
    """The model, mask and training flags as a BackendSpec; `fields` sets the rest."""
    return BackendSpec(
        model=ModelConfig(
            d_model=args.d_model,
            n_heads=args.heads,
            n_layers_enc=args.enc_layers,
            n_layers_dec=args.dec_layers,
            d_ff=args.d_ff,
        ),
        lsg=LsgConfig(
            block_size=args.block,
            sparsity_stride=args.stride,
            num_global=args.num_global,
            max_input_tokens=args.max_input,
            local_radius=args.radius,
        ),
        train=TrainConfig(initial_lr=args.lr, epochs=args.epochs, batch_size=args.batch_size),
        max_summary_tokens=args.max_summary_tokens,
        **fields,
    )


def _read_note(path: str | None) -> str:
    """The note at `path`, or on stdin when None, decoded strictly as UTF-8."""
    if path is None:
        name, data = "<stdin>", sys.stdin.buffer.read()
    else:
        name, data = path, Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{name}: not UTF-8 text ({exc})") from exc


def _cmd_split_sections(args) -> int:
    note = segment_note(_read_note(args.infile))
    if args.format == "json":
        sections = []
        for sec in note.sections:
            if isinstance(sec.id, UnknownSection):
                entry = {"id": "UNKNOWN", "raw": sec.id.raw}
            else:
                entry = {"id": sec.id.value}
            entry.update(header=sec.header, body=sec.body)
            sections.append(entry)
        rendered = json.dumps(
            {"preamble": note.preamble, "sections": sections},
            sort_keys=True, ensure_ascii=False, indent=2,
        ) + "\n"
    else:
        blocks = []
        if note.preamble:
            blocks.append("== PREAMBLE\n" + note.preamble)
        for sec in note.sections:
            if isinstance(sec.id, UnknownSection):
                label = f"UNKNOWN ({sec.id.raw})"
            else:
                label = f"{sec.id.value} ({canonical_header(sec.id)})"
            blocks.append(f"== {label}\n{sec.body}")
        rendered = "\n\n".join(blocks) + "\n" if blocks else ""
    _write_output(rendered, args.out)
    return 0


def _cmd_train(args) -> int:
    corpus = _load(args.train, args.columns)
    pairs = [(e.dialogue, e.note) for e in corpus.labeled()]
    if not pairs:
        raise ChartsumError(f"{args.train}: no encounters with reference notes")
    backend = _backend_from_args(args)
    trained, history = train_tiny_lsg(
        backend, pairs, args.seed, log=lambda line: print(line, file=sys.stderr)
    )
    save_model(trained, args.checkpoint, backend.lsg, backend.max_summary_tokens)
    print(f"final loss {history[-1]:.6f}; checkpoint written to {args.checkpoint}",
          file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    summarizer = TinyLsgSummarizer(
        checkpoint.model, checkpoint.lsg, checkpoint.max_summary_tokens
    )
    corpus = _load(args.eval, args.columns)
    entries = {e.id: summarizer.summarize(e.dialogue) for e in corpus}
    digest = hashlib.sha256(Path(args.checkpoint).read_bytes()).hexdigest()
    predict_config = {
        "checkpoint_sha256": digest,
        "lsg": asdict(checkpoint.lsg),
        "max_summary_tokens": checkpoint.max_summary_tokens,
    }
    predictions = PredictionSet(
        approach="single",
        entries=entries,
        config_hash=hashlib.sha256(
            json.dumps(predict_config, sort_keys=True).encode()
        ).hexdigest(),
        seed=0,
    )
    _write_output(predictions_text(predictions), args.out)
    return 0


def _is_prediction_file(path: str) -> bool:
    """A `.json` name, or text that parses as a JSON object holding `entries`."""
    if path.endswith(".json"):
        return True
    try:
        payload = json.loads(Path(path).read_bytes())
    except ValueError:  # not JSON, or not Unicode text: a corpus, or a broken one
        return False
    return isinstance(payload, dict) and "entries" in payload


def _load_candidates(path: str, columns: str | None) -> dict[str, str]:
    if _is_prediction_file(path):
        return dict(load_predictions(path).entries)
    corpus = _load(path, columns)
    texts = {}
    for e in corpus:
        if e.note is None:
            raise ChartsumError(f"{path}: encounter {e.id!r} has no note text to score")
        texts[e.id] = e.note
    return texts


def _cmd_score(args) -> int:
    candidates = _load_candidates(args.candidates, args.columns)
    references = _load_candidates(args.references, args.columns)
    pairs = []
    for eid in sorted(candidates):
        if eid not in references:
            raise ChartsumError(f"candidate {eid!r} has no reference")
        pairs.append((eid, candidates[eid], references[eid]))
    scores = corpus_rouge(pairs)
    metrics = ("rouge1", "rouge2", "rougeL")
    if args.format == "json":
        rendered = json.dumps(scores_to_dict(scores), sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buffer = StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["id", "rouge1", "rouge2", "rougeL"])
        for eid, _, _ in pairs:
            doc = scores.per_document[eid]
            writer.writerow([eid] + [round4(getattr(doc, m).f1) for m in metrics])
        writer.writerow(["AGGREGATE"] + [round4(getattr(scores, m).f1) for m in metrics])
        rendered = buffer.getvalue()
    else:
        lines = ["id              rouge1  rouge2  rougeL"]
        for eid, _, _ in pairs:
            doc = scores.per_document[eid]
            lines.append(
                f"{eid:<14}  " + "  ".join(round4(getattr(doc, m).f1) for m in metrics)
            )
        lines.append("")
        lines.append("aggregate       precision  recall  f1")
        for m in metrics:
            s = getattr(scores, m)
            lines.append(
                f"{m:<14}  {round4(s.precision):<9}  {round4(s.recall):<6}  {round4(s.f1)}"
            )
        rendered = "\n".join(lines) + "\n"
    _write_output(rendered, args.out)
    return 0


def _parse_sections(spec: str | None) -> tuple[Section, ...] | None:
    if spec is None:
        return None
    sections = []
    for name in spec.split(","):
        try:
            sections.append(Section[name.strip().upper()])
        except KeyError:
            raise ValueError(f"unknown section {name.strip()!r}") from None
    return tuple(sections)


def _cmd_run(args) -> int:
    train_corpus = _load(args.train, args.columns)
    eval_corpus = _load(args.eval, args.columns)
    stage2 = None
    if args.approach == "multi-layer":
        stage2 = _backend_from_args(args, kind=args.stage2_backend, extract_k=args.extract_k)
    cfg = ApproachConfig(
        approach=args.approach,
        backend=_backend_from_args(args, kind=args.backend, extract_k=args.extract_k),
        sections=_parse_sections(args.sections),
        stage2=stage2,
        seed=args.seed,
    )
    # The run is scored against every eval note: fail on a missing one before training.
    unlabeled = sorted(e.id for e in eval_corpus if e.note is None)
    if unlabeled:
        raise MissingReference(unlabeled[0])
    predictions = run_approach(train_corpus, eval_corpus, cfg)
    run = evaluate(predictions, eval_corpus)
    rendered = report([run], format=args.format)
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_predictions(predictions, out_dir / "predictions.json")
        (out_dir / "report.txt").write_text(report([run]), encoding="utf-8")
        (out_dir / "report.json").write_text(report([run], format="json"), encoding="utf-8")
    sys.stdout.write(rendered)
    return 0


def _cmd_report(args) -> int:
    runs = []
    for path in args.infiles:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MalformedFile(f"{path}: not a valid report file ({exc})") from exc
        if not isinstance(payload, list) or not payload:
            raise MalformedFile(f"{path}: expected a non-empty JSON list of run reports")
        for index, entry in enumerate(payload):
            try:
                runs.append(run_report_from_dict(entry))
            except MalformedFile as exc:
                raise MalformedFile(f"{path}: run {index}: {exc}") from None
    _write_output(report(runs, format=args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chartsum",
        description="Train, run, and score chart-note summarization pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    fmt = _HelpFormatter

    p = sub.add_parser("split-sections", formatter_class=fmt,
                       help="segment a chart note into labeled sections")
    p.add_argument("--in", dest="infile", default=None, help="note file (default: stdin)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output rendering")
    p.set_defaults(func=_cmd_split_sections)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="train a single dialogue-to-note model")
    p.add_argument("--train", required=True, help="training corpus file")
    p.add_argument("--checkpoint", required=True, help="where to write the trained model")
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    _add_corpus_flags(p)
    _add_model_flags(p)
    _add_mask_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", formatter_class=fmt,
                       help="apply a trained checkpoint to a corpus",
                       description="The attention mask, source cap and decode cap are "
                                   "the ones the checkpoint records.")
    p.add_argument("--checkpoint", required=True, help="trained model file")
    p.add_argument("--eval", required=True, help="corpus to summarize")
    p.add_argument("--out", default=None, help="prediction file (default: stdout)")
    _add_corpus_flags(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("score", formatter_class=fmt,
                       help="ROUGE-score candidates against references")
    p.add_argument("--candidates", required=True,
                   help="prediction .json or corpus file with candidate notes")
    p.add_argument("--references", required=True,
                   help="prediction .json or corpus file with reference notes")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text",
                   help="output rendering")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    _add_corpus_flags(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("run", formatter_class=fmt,
                       help="train, predict, and score one approach end to end")
    p.add_argument("--approach", required=True, choices=APPROACH_TAGS,
                   help="which architecture to run")
    p.add_argument("--train", required=True, help="training corpus file")
    p.add_argument("--eval", required=True, help="evaluation corpus file")
    p.add_argument("--backend", default=_DEFAULT.kind, choices=BACKEND_KINDS,
                   help="summarizer filling each model slot")
    p.add_argument("--stage2-backend", default=_DEFAULT.kind, choices=BACKEND_KINDS,
                   help="second-stage backend for multi-layer runs")
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    p.add_argument("--sections", default=None,
                   help="comma-separated section ids for section-wise runs "
                        "(default: every section observed in training)")
    p.add_argument("--extract-k", type=int, default=_DEFAULT.extract_k,
                   help="sentences kept by the extractive backend")
    p.add_argument("--out-dir", default=None,
                   help="directory for predictions.json, report.txt, report.json")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table",
                   help="report rendering")
    _add_corpus_flags(p)
    _add_model_flags(p)
    _add_mask_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", formatter_class=fmt,
                       help="render comparison tables from saved run reports")
    p.add_argument("--in", dest="infiles", nargs="+", required=True,
                   help="run reports: report.json or `--format json` output")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table",
                   help="report rendering")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ChartsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
