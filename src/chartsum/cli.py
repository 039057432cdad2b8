"""Single `chartsum` executable: section splitting, training, prediction, scoring, reports.

Exit codes: 0 success, 1 bad flag or flag value, 2 runtime error (a missing file,
any malformed input file, a failed gradient check). Diagnostics go to stderr;
data goes to stdout or the requested output path.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
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
    save_predictions,
)
from .errors import ChartsumError
from .pipeline import (
    BACKEND_KINDS,
    ApproachConfig,
    BackendSpec,
    TinyLsgSummarizer,
    config_hash,
    evaluate,
    report,
    round4,
    run_approach,
    run_report_from_dict,
    run_report_to_dict,
)
from .rouge import corpus_rouge
from .sections import Section, UnknownSection, canonical_header, segment_note
from .tinylsg import (
    LsgConfig,
    ModelConfig,
    TrainConfig,
    build_vocab,
    grad_check,
    init_model,
    load_model,
    lsg_mask,
    mask_density,
    save_model,
    train,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; this toolkit reserves 2 for runtime errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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


def _load(path: str, fmt: str | None, columns: str | None) -> Corpus:
    if fmt is None:
        fmt = "jsonl" if path.endswith((".jsonl", ".ndjson")) else "csv"
    return load_corpus(path, fmt, _parse_columns(columns))


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus-format", choices=["csv", "jsonl"], default=None,
                   help="corpus file format (default: by extension)")
    p.add_argument("--columns", default=None,
                   help="remap corpus columns, e.g. id=encounter_id,dialogue=src,note=tgt")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-model", type=int, default=64, help="embedding width")
    p.add_argument("--heads", type=int, default=2, help="attention heads")
    p.add_argument("--enc-layers", type=int, default=2, help="encoder layers")
    p.add_argument("--dec-layers", type=int, default=2, help="decoder layers")
    p.add_argument("--d-ff", type=int, default=128, help="feed-forward width")
    p.add_argument("--init-scale", type=float, default=0.02, help="weight init stddev")
    p.add_argument("--min-freq", type=int, default=1, help="vocabulary frequency cutoff")
    p.add_argument("--lr", type=float, default=5e-5, help="initial learning rate")
    p.add_argument("--epochs", type=int, default=20, help="training epochs")
    p.add_argument("--batch-size", type=int, default=8, help="examples per update")
    p.add_argument("--max-summary-tokens", type=_positive_int, default=128,
                   help="decode length cap")


def _add_mask_flags(p: argparse.ArgumentParser, stride_default: int = 4) -> None:
    p.add_argument("--block", type=int, default=16, help="local attention block size")
    p.add_argument("--stride", type=int, default=stride_default,
                   help="sparse key stride (0 disables)")
    p.add_argument("--global", dest="num_global", type=int, default=1,
                   help="number of global tokens")
    p.add_argument("--radius", type=int, default=1, help="adjacent-block reach")
    p.add_argument("--max-input", type=int, default=512, help="source token cap")


def _lsg_from_args(args) -> LsgConfig:
    return LsgConfig(
        block_size=args.block,
        sparsity_stride=args.stride,
        num_global=args.num_global,
        max_input_tokens=args.max_input,
        local_radius=args.radius,
    )


def _model_from_args(args) -> ModelConfig:
    return ModelConfig(
        d_model=args.d_model,
        n_heads=args.heads,
        n_layers_enc=args.enc_layers,
        n_layers_dec=args.dec_layers,
        d_ff=args.d_ff,
    )


def _backend_from_args(args, kind: str) -> BackendSpec:
    return BackendSpec(
        kind=kind,
        extract_k=args.extract_k,
        model=_model_from_args(args),
        lsg=_lsg_from_args(args),
        train=TrainConfig(
            initial_lr=args.lr, epochs=args.epochs, batch_size=args.batch_size, seed=args.seed
        ),
        max_summary_tokens=args.max_summary_tokens,
        min_freq=args.min_freq,
        init_scale=args.init_scale,
    )


def _cmd_split_sections(args) -> int:
    if args.infile is None:
        text = sys.stdin.read()
    else:
        text = Path(args.infile).read_text(encoding="utf-8")
    note = segment_note(text)
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
    corpus = _load(args.train, args.corpus_format, args.columns)
    pairs = [(e.dialogue, e.note) for e in corpus.labeled()]
    if not pairs:
        raise ChartsumError(f"{args.train}: no encounters with reference notes")
    lsg = _lsg_from_args(args)
    vocab = build_vocab([text for pair in pairs for text in pair], min_freq=args.min_freq)
    model = init_model(_model_from_args(args), vocab, seed=args.seed, init_scale=args.init_scale)
    print(f"vocabulary {vocab.size} tokens, {model.num_params} parameters", file=sys.stderr)
    tc = TrainConfig(
        initial_lr=args.lr, epochs=args.epochs, batch_size=args.batch_size, seed=args.seed
    )
    trained, history = train(model, pairs, tc, lsg, log=lambda line: print(line, file=sys.stderr))
    save_model(trained, args.checkpoint)
    print(f"final loss {history[-1]:.6f}; checkpoint written to {args.checkpoint}",
          file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.checkpoint)
    lsg = _lsg_from_args(args)
    summarizer = TinyLsgSummarizer(model, lsg, args.max_summary_tokens)
    corpus = _load(args.eval, args.corpus_format, args.columns)
    entries = {e.id: summarizer.summarize(e.dialogue) for e in corpus}
    digest = hashlib.sha256(Path(args.checkpoint).read_bytes()).hexdigest()
    predict_config = {
        "checkpoint_sha256": digest,
        "lsg": asdict(lsg),
        "max_summary_tokens": args.max_summary_tokens,
    }
    predictions = PredictionSet(
        approach="single",
        entries=entries,
        config_hash=hashlib.sha256(
            json.dumps(predict_config, sort_keys=True).encode()
        ).hexdigest(),
        seed=0,
    )
    if args.out is None:
        buffer = StringIO()
        json.dump(
            {"approach": predictions.approach, "entries": predictions.entries},
            buffer, sort_keys=True, ensure_ascii=False, indent=2,
        )
        sys.stdout.write(buffer.getvalue() + "\n")
    else:
        save_predictions(predictions, args.out)
    return 0


def _load_candidates(path: str, fmt: str | None, columns: str | None) -> dict[str, str]:
    if path.endswith(".json"):
        return dict(load_predictions(path).entries)
    corpus = _load(path, fmt, columns)
    texts = {}
    for e in corpus:
        if e.note is None:
            raise ChartsumError(f"{path}: encounter {e.id!r} has no note text to score")
        texts[e.id] = e.note
    return texts


def _cmd_score(args) -> int:
    candidates = _load_candidates(args.candidates, args.corpus_format, args.columns)
    references = _load_candidates(args.references, args.corpus_format, args.columns)
    pairs = []
    for eid in sorted(candidates):
        if eid not in references:
            raise ChartsumError(f"candidate {eid!r} has no reference")
        pairs.append((eid, candidates[eid], references[eid]))
    scores = corpus_rouge(pairs)
    metrics = ("rouge1", "rouge2", "rougeL")
    if args.format == "json":
        payload = {
            "aggregate": {
                m: {
                    "precision": getattr(scores, m).precision,
                    "recall": getattr(scores, m).recall,
                    "f1": getattr(scores, m).f1,
                }
                for m in metrics
            },
            "per_document": {
                eid: {m: getattr(doc, m).f1 for m in metrics}
                for eid, doc in scores.per_document.items()
            },
        }
        rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
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
    train_corpus = _load(args.train, args.corpus_format, args.columns)
    eval_corpus = _load(args.eval, args.corpus_format, args.columns)
    stage2 = None
    if args.approach == "multi-layer":
        stage2 = _backend_from_args(args, args.stage2_backend)
    cfg = ApproachConfig(
        approach=args.approach,
        backend=_backend_from_args(args, args.backend),
        sections=_parse_sections(args.sections),
        stage2=stage2,
        seed=args.seed,
    )
    predictions = run_approach(train_corpus, eval_corpus, cfg)
    run = evaluate(predictions, eval_corpus)
    rendered = report([run], format=args.format)
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_predictions(predictions, out_dir / "predictions.json")
        (out_dir / "report.txt").write_text(report([run]), encoding="utf-8")
        (out_dir / "report.json").write_text(
            json.dumps([run_report_to_dict(run)], sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
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


_GRAD_CHECK_SRC = "patient reports sharp pain in the left knee after a fall"
_GRAD_CHECK_TGT = "left knee pain after fall"


def _cmd_grad_check(args) -> int:
    vocab = build_vocab([_GRAD_CHECK_SRC, _GRAD_CHECK_TGT], min_freq=1)
    model = init_model(_model_from_args(args), vocab, seed=args.seed, init_scale=args.init_scale)
    lsg = _lsg_from_args(args)
    err = grad_check(
        model,
        (vocab.encode(_GRAD_CHECK_SRC), vocab.encode(_GRAD_CHECK_TGT)),
        epsilon=args.eps,
        n_params_sampled=args.samples,
        seed=args.seed,
        lsg=lsg,
    )
    sys.stdout.write(f"max_gradient_error {err:.3e}\n")
    if err >= args.threshold:
        print(f"error: gradient error {err:.3e} exceeds threshold {args.threshold:.3e}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_mask_dump(args) -> int:
    mask = lsg_mask(args.seq_len, _lsg_from_args(args))
    grid = "\n".join("".join("#" if allowed else "." for allowed in row) for row in mask)
    print(f"allowed fraction {mask_density(mask):.4f}", file=sys.stderr)
    _write_output(grid + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chartsum",
        description="Train, run, and score chart-note summarization pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

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
                       help="apply a trained checkpoint to a corpus")
    p.add_argument("--checkpoint", required=True, help="trained model file")
    p.add_argument("--eval", required=True, help="corpus to summarize")
    p.add_argument("--out", default=None, help="prediction file (default: stdout)")
    p.add_argument("--max-summary-tokens", type=_positive_int, default=128,
                   help="decode length cap")
    _add_corpus_flags(p)
    _add_mask_flags(p)
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
    p.add_argument("--backend", default="tiny-lsg", choices=BACKEND_KINDS,
                   help="summarizer filling each model slot")
    p.add_argument("--stage2-backend", default="tiny-lsg", choices=BACKEND_KINDS,
                   help="second-stage backend for multi-layer runs")
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    p.add_argument("--sections", default=None,
                   help="comma-separated section ids for section-wise runs "
                        "(default: every section observed in training)")
    p.add_argument("--extract-k", type=int, default=3,
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
                   help="report.json files from `run --out-dir`")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table",
                   help="report rendering")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("grad-check", formatter_class=fmt,
                       help="compare analytic gradients against finite differences")
    p.add_argument("--d-model", type=int, default=8)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--enc-layers", type=int, default=1)
    p.add_argument("--dec-layers", type=int, default=1)
    p.add_argument("--d-ff", type=int, default=16)
    p.add_argument("--init-scale", type=float, default=0.5,
                   help="weight init stddev (larger keeps gradients well-conditioned)")
    p.add_argument("--eps", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--samples", type=int, default=200, help="parameters to sample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-4, help="failure threshold")
    _add_mask_flags(p)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("mask-dump", formatter_class=fmt,
                       help="print an attention mask as a #/. grid")
    p.add_argument("--seq-len", type=int, required=True, help="mask size to render")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    # visualization shows the local+global pattern unless sparse links are asked for
    _add_mask_flags(p, stride_default=0)
    p.set_defaults(func=_cmd_mask_dump)

    return parser


def main(argv=None) -> int:
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
