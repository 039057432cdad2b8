"""Single `chartsum` executable: section splitting, training, prediction, scoring, reports.

Exit codes: 0 success, 1 bad flag or flag value, 2 runtime error (a missing file
or any malformed input file). Diagnostics go to stderr; data goes to stdout or
the requested output path.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from dataclasses import asdict, fields as dataclass_fields, replace
from pathlib import Path

from .corpus import (
    APPROACH_TAGS,
    MalformedFile,
    PredictionSet,
    check_column,
    decode_utf8,
    json_text,
    load_corpus,
    load_predictions,
    prediction_file_reason,
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
    config_hash,
    evaluate,
    load_run_reports,
    pair_references,
    render_scores,
    report,
    run_approach,
    train_tiny_lsg,
)
from .rouge import EmptyEvaluation, corpus_rouge
from .sections import UnknownSection, canonical_header, segment_note


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


def _write_output(text: str, out: str | Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _check_writable(path: str | Path) -> None:
    """Raise the OSError that writing a file at `path` would end with, before the work
    that makes its contents: a directory, a missing or non-directory parent, no access."""
    path = Path(path)
    parent = path.parent
    if path.is_dir():
        code = errno.EISDIR
    elif not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
    elif not os.access(path if path.exists() else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def _parse_columns(spec: str) -> dict[str, str]:
    """`canonical=actual` pairs; each canonical name is a corpus column named at most once."""
    columns = {}
    for item in spec.split(","):
        canonical, sep, actual = (part.strip() for part in item.partition("="))
        if not sep or not canonical or not actual:
            raise argparse.ArgumentTypeError(f"expects canonical=actual pairs, got {item!r}")
        try:
            check_column(canonical)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if canonical in columns:
            raise argparse.ArgumentTypeError(f"column {canonical!r} is named twice")
        columns[canonical] = actual
    return columns


def _parse_seed(text: str) -> int:
    """A --seed value: an integer >= 0, the seeds numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--columns", type=_parse_columns, default=None,
                   help="remap corpus columns, e.g. id=encounter_id,dialogue=src,note=tgt")


# Every flag default that a config field has is read from that field.
_DEFAULT = BackendSpec()

# The tiny-lsg setting flags of `train` and `run`, in --help order: each flag, the
# BackendSpec part that holds its setting (None: BackendSpec itself), the setting's
# field there, which is also the flag's dest, and the flag's help.
_SETTINGS = (
    ("--d-model", "model", "d_model", "embedding width"),
    ("--heads", "model", "n_heads", "attention heads"),
    ("--enc-layers", "model", "n_layers_enc", "encoder layers"),
    ("--dec-layers", "model", "n_layers_dec", "decoder layers"),
    ("--d-ff", "model", "d_ff", "feed-forward width"),
    ("--lr", "train", "initial_lr", "initial learning rate"),
    ("--epochs", "train", "epochs", "training epochs"),
    ("--batch-size", "train", "batch_size", "examples per update"),
    ("--max-summary-tokens", None, "max_summary_tokens", "decode length cap"),
    ("--block", "lsg", "block_size", "local attention block size"),
    ("--stride", "lsg", "sparsity_stride", "sparse key stride (0 disables)"),
    ("--global", "lsg", "num_global", "number of global tokens"),
    ("--radius", "lsg", "local_radius", "adjacent-block reach"),
    ("--max-input", "lsg", "max_input_tokens", "source token cap"),
)


def _add_setting_flags(p: argparse.ArgumentParser) -> None:
    for flag, part, name, text in _SETTINGS:
        default = getattr(_DEFAULT if part is None else getattr(_DEFAULT, part), name)
        p.add_argument(flag, dest=name, type=type(default), default=default,
                       metavar=flag[2:].replace("-", "_").upper(), help=text)


def _backend_from_args(args, **fields) -> BackendSpec:
    """The setting flags as a BackendSpec; `fields` sets the rest."""
    settings: dict[str | None, dict] = {}
    for _, part, name, _ in _SETTINGS:
        settings.setdefault(part, {})[name] = getattr(args, name)
    # Parts are built in BackendSpec's field order, not the table's, so a bad model
    # setting is reported before a bad mask setting, and that before a training one.
    for part in dataclass_fields(BackendSpec):
        if part.name in settings:
            fields[part.name] = replace(getattr(_DEFAULT, part.name), **settings[part.name])
    return BackendSpec(**settings[None], **fields)


def _read_note(path: str | None) -> str:
    """The note at `path`, or on stdin when None, decoded strictly as UTF-8."""
    if path is None:
        name, data = "<stdin>", sys.stdin.buffer.read()
    else:
        name, data = path, Path(path).read_bytes()
    return decode_utf8(data, name)


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
        rendered = json_text({"preamble": note.preamble, "sections": sections})
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
    from .tinylsg import save_model
    from .tinylsg.train import NonFiniteDecode, summarize_ids

    backend = _backend_from_args(args)
    _check_writable(args.checkpoint)
    corpus = load_corpus(args.train, args.columns)
    pairs = [(e.dialogue, e.note) for e in corpus.labeled()]
    if not pairs:
        raise ChartsumError(f"{args.train}: no encounters with reference notes")
    trained, history = train_tiny_lsg(
        backend, pairs, args.seed, log=lambda line: print(line, file=sys.stderr)
    )
    # A finite loss does not prove the weights decode; a checkpoint that
    # cannot decode is not written.
    try:
        summarize_ids(trained, pairs[0][0], 1, backend.lsg)
    except NonFiniteDecode as exc:
        raise ChartsumError(f"trained model cannot decode ({exc}); try a lower --lr") from exc
    save_model(trained, args.checkpoint, backend.lsg, backend.max_summary_tokens)
    print(f"final loss {history[-1]:.6f}; checkpoint written to {args.checkpoint}",
          file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    from .tinylsg import load_checkpoint

    if args.out is not None:
        _check_writable(args.out)
    checkpoint = load_checkpoint(args.checkpoint)
    summarizer = TinyLsgSummarizer(
        checkpoint.model, checkpoint.lsg, checkpoint.max_summary_tokens
    )
    corpus = load_corpus(args.eval, args.columns)
    entries = {e.id: summarizer.summarize(e.dialogue) for e in corpus}
    predict_config = {
        "checkpoint_sha256": checkpoint.sha256,
        "lsg": asdict(checkpoint.lsg),
        "max_summary_tokens": checkpoint.max_summary_tokens,
    }
    predictions = PredictionSet(
        approach="single",
        entries=entries,
        config_hash=config_hash(predict_config),
        seed=0,
    )
    _write_output(predictions_text(predictions), args.out)
    return 0


def _load_candidates(path: str, columns: dict[str, str] | None) -> dict[str, str]:
    reason = prediction_file_reason(path)
    if reason is not None:
        try:
            return dict(load_predictions(path).entries)
        except MalformedFile as exc:
            raise MalformedFile(f"{exc} (read as a prediction file because {reason})") from exc
    corpus = load_corpus(path, columns)
    texts = {}
    for e in corpus:
        if e.note is None:
            raise ChartsumError(f"{path}: encounter {e.id!r} has no note text to score")
        texts[e.id] = e.note
    return texts


def _cmd_score(args) -> int:
    candidates = _load_candidates(args.candidates, args.columns)
    references = _load_candidates(args.references, args.columns)
    scores = corpus_rouge(pair_references(candidates, references, args.references))
    _write_output(render_scores(scores, args.format), args.out)
    return 0


def _cmd_run(args) -> int:
    # Settings are checked before any file is read: a bad value exits 1 even
    # when an input file is missing.
    stage2 = None
    if args.approach == "multi-layer":
        stage2 = _backend_from_args(args, kind=args.stage2_backend, extract_k=args.extract_k)
    cfg = ApproachConfig(
        approach=args.approach,
        backend=_backend_from_args(args, kind=args.backend, extract_k=args.extract_k),
        stage2=stage2,
        seed=args.seed,
    )
    train_corpus = load_corpus(args.train, args.columns)
    eval_corpus = load_corpus(args.eval, args.columns)
    # Fail before training on what would stop the run after it: a missing eval
    # note (the run is scored against every one), no eval note at all, or an
    # output directory that cannot be made.
    unlabeled = sorted(e.id for e in eval_corpus if e.note is None)
    if unlabeled:
        raise MissingReference(unlabeled[0], args.eval)
    if not eval_corpus:
        raise EmptyEvaluation("no candidate/reference pairs to score")
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    predictions = run_approach(train_corpus, eval_corpus, cfg)
    run = evaluate(predictions, eval_corpus)
    # Each form is rendered once, for stdout and for its file alike.
    forms = {args.format} | ({"table", "json"} if args.out_dir is not None else set())
    rendered = {form: report([run], format=form) for form in forms}
    if args.out_dir is not None:
        save_predictions(predictions, out_dir / "predictions.json")
        _write_output(rendered["table"], out_dir / "report.txt")
        _write_output(rendered["json"], out_dir / "report.json")
    _write_output(rendered[args.format], None)
    return 0


def _cmd_report(args) -> int:
    runs = [run for path in args.infiles for run in load_run_reports(path)]
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
    p.add_argument("--seed", type=_parse_seed, required=True, help="random seed (required)")
    _add_corpus_flags(p)
    _add_setting_flags(p)
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
    p.add_argument("--seed", type=_parse_seed, required=True, help="random seed (required)")
    p.add_argument("--extract-k", type=int, default=_DEFAULT.extract_k,
                   help="sentences kept by the extractive backend")
    p.add_argument("--out-dir", default=None,
                   help="directory for predictions.json, report.txt, report.json")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table",
                   help="report rendering")
    _add_corpus_flags(p)
    _add_setting_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", formatter_class=fmt,
                       help="render comparison tables from saved run reports")
    p.add_argument("--in", dest="infiles", nargs="+", action="extend", required=True,
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
