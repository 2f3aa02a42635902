"""Operator command line: the pipeline from raw dump to benchmark report.

Settings resolve as built-in defaults, then a JSON config file, then
explicit flags. The effective configuration is echoed into each command's
output directory, so a run can always be reproduced from its artifacts.
Logs are JSON lines on stderr; artifacts never contain wall-clock data, so
reruns with identical inputs and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .encoder import POOLING_STRATEGIES, EncoderConfig
from .eval import (
    DEFAULT_KS,
    EvalError,
    build_eval_instances,
    check_ks,
    cliffs_delta,
    evaluate_corpus,
    latency_bench,
    missed_tag_analysis,
    wilcoxon_signed_rank,
    write_json,
)
from .ingest import (
    DecomposedPost,
    ParseStats,
    artifact_path,
    chronological_split,
    decompose_all,
    parse_dump,
    read_corpus,
    write_corpus,
)
from .model import (
    COMPONENT_ORDER,
    ModelConfig,
    TripletModel,
    encode_post,
    load_checkpoint,
    predict_top_k,
    save_checkpoint,
)
from .tokenizer import TRUNCATION_STRATEGIES, Tokenizer, train_tokenizer
from .train import TrainConfig, build_dataset, train, write_loss_trace
from .vocab import TagVocabulary, build_tag_vocab, filter_posts

log = logging.getLogger("tagrec")


class ArtifactError(ValueError):
    """An input artifact is missing or fails validation."""


class _JsonFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


def _setup_logging(quiet: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonFormatter())
    root = logging.getLogger()
    root.handlers = [handler]
    root.setLevel(logging.ERROR if quiet else logging.INFO)


REQUIRED = object()

# One row per setting: default (or REQUIRED), help text, extra add_argument
# keywords. The name is the config-file key; the flag is --name-with-dashes.
SETTINGS: dict[str, tuple[object, str, dict]] = {
    "dump": (REQUIRED, "Posts.xml path", {}),
    "corpus": (REQUIRED, "corpus JSONL", {}),
    "test_corpus": (REQUIRED, "held-out corpus JSONL", {}),
    "vocab": (REQUIRED, "tag vocabulary JSON", {}),
    "tokenizer": (REQUIRED, "tokenizer JSON", {}),
    "checkpoint": (REQUIRED, "model checkpoint", {}),
    "out_dir": (REQUIRED, "output directory", {}),
    "theta": (50, "rare-tag threshold: keep count >= theta", {"type": int}),
    "vocab_size": (8192, "target vocabulary size", {"type": int}),
    "components": (",".join(COMPONENT_ORDER), "comma list of post components to encode", {}),
    "share_weights": (
        ModelConfig.share_weights,
        "one encoder shared by all components",
        {"action": argparse.BooleanOptionalAction},
    ),
    "pooling": (EncoderConfig.pooling, "sequence pooling", {"choices": POOLING_STRATEGIES}),
    "layers": (EncoderConfig.layers, "encoder layers", {"type": int}),
    "heads": (EncoderConfig.heads, "attention heads", {"type": int}),
    "model_dim": (EncoderConfig.model_dim, "model width", {"type": int}),
    "ffn_dim": (EncoderConfig.ffn_dim, "feed-forward width", {"type": int}),
    "title_len": (100, "title sequence length", {"type": int}),
    "description_len": (EncoderConfig.max_positions, "description sequence length", {"type": int}),
    "code_len": (EncoderConfig.max_positions, "code sequence length", {"type": int}),
    "truncation": (ModelConfig.truncation, "overflow handling", {"choices": TRUNCATION_STRATEGIES}),
    "dropout": (EncoderConfig.dropout_rate, "dropout rate", {"type": float}),
    "batch_size": (TrainConfig.batch_size, "posts per step", {"type": int}),
    "lr": (TrainConfig.initial_lr, "initial learning rate", {"type": float}),
    "epochs": (TrainConfig.epochs, "passes over the data", {"type": int}),
    "seed": (0, "seed for init, shuffling, dropout and sampling", {"type": int}),
    "weight_decay": (TrainConfig.weight_decay, "decoupled weight decay", {"type": float}),
    "warmup_steps": (TrainConfig.warmup_steps, "linear warmup steps", {"type": int}),
    "max_grad_norm": (0.0, "global gradient norm cap, 0 disables", {"type": float}),
    "test_count": (0, "newest posts held out to test.jsonl", {"type": int}),
    "ks": (",".join(map(str, DEFAULT_KS)), "comma list of cutoffs", {}),
    "post_json": (None, "JSON file with title/description/code", {}),
    "title": ("", "post title", {}),
    "description": ("", "post description", {}),
    "code": ("", "post code", {}),
    "k": (5, "number of tags to recommend", {"type": int}),
    "sample_n": (2000, "posts sampled with replacement", {"type": int}),
    "repeats": (5, "timing passes over the sample", {"type": int}),
    "a": (REQUIRED, "first per-instance CSV", {}),
    "b": (REQUIRED, "second per-instance CSV", {}),
    "column": ("f1@5", "metric column to compare", {}),
    "out": (None, "also write the result JSON here", {}),
}

TRAIN_SETTINGS = (
    "corpus", "vocab", "tokenizer", "out_dir", "components", "share_weights", "pooling",
    "layers", "heads", "model_dim", "ffn_dim", "title_len", "description_len", "code_len",
    "truncation", "dropout", "batch_size", "lr", "epochs", "seed", "weight_decay",
    "warmup_steps", "max_grad_norm",
)

# One row per subcommand: help line and the settings it takes, in flag order.
# main dispatches "build-vocab" to cmd_build_vocab, and so on.
COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "ingest": ("parse a Posts.xml dump into a JSONL corpus", ("dump", "out_dir")),
    "build-vocab": ("build the tag vocabulary and filter the corpus", ("corpus", "out_dir", "theta")),
    "tokenizer-train": ("train the byte-level BPE tokenizer", ("corpus", "out_dir", "vocab_size")),
    "train": ("train a model and write a checkpoint", (*TRAIN_SETTINGS, "test_count")),
    "evaluate": (
        "score a checkpoint on a test corpus",
        ("corpus", "checkpoint", "vocab", "tokenizer", "out_dir", "ks"),
    ),
    "predict": (
        "recommend tags for one post",
        ("checkpoint", "vocab", "tokenizer", "post_json", "title", "description", "code", "k"),
    ),
    "ablate": ("train and score leave-one-component-out variants", (*TRAIN_SETTINGS, "test_corpus")),
    "bench": (
        "measure single-post prediction latency",
        ("checkpoint", "vocab", "tokenizer", "corpus", "out_dir", "sample_n", "repeats", "seed"),
    ),
    "compare": ("paired significance test between two per-instance CSVs", ("a", "b", "column", "out")),
}


def _merge_options(args: argparse.Namespace, names: Sequence[str]) -> dict:
    """Built-in defaults < config file < explicitly passed flags; then check required settings."""
    effective = {k: None if SETTINGS[k][0] is REQUIRED else SETTINGS[k][0] for k in names}
    if args.config is not None:
        overrides = _read_json_object(args.config, "config file")
        unknown = sorted(set(overrides) - set(names))
        if unknown:
            raise ArtifactError(f"config file has unknown settings for this command: {unknown}")
        effective.update({k: _config_value(k, v) for k, v in overrides.items()})
    for key in names:
        value = getattr(args, key)
        if value is not None:
            effective[key] = value
    missing = [k for k in names if SETTINGS[k][0] is REQUIRED and effective[k] in (None, "")]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ArtifactError(f"missing required settings: {flags}")
    return effective


_JSON_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _config_value(key: str, value: object) -> object:
    """A config-file value checked against its setting's row, converted as its flag would be."""
    default, _, kwargs = SETTINGS[key]
    if value is None and default is None:
        return None
    kind = kwargs.get("type", bool if "action" in kwargs else str)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ArtifactError(f"config setting {key!r} must be {_JSON_TYPE_NAMES[kind]}, got {json.dumps(value)}")
    choices = kwargs.get("choices")
    if choices is not None and value not in choices:
        raise ArtifactError(f"config setting {key!r} must be one of {list(choices)}, got {value!r}")
    return kind(value)


def _require_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ArtifactError(f"{what} not found: {p}")
    return p


def _read_json_object(path: str | Path, what: str) -> dict:
    p = _require_file(path, what)
    try:
        value = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{what} {p} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ArtifactError(f"{what} {p} must contain a JSON object")
    return value


def _out_dir(options: dict) -> Path:
    out = Path(options["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_vocab(path: str | Path) -> TagVocabulary:
    return TagVocabulary.from_json(_require_file(path, "vocabulary").read_text(encoding="utf-8"))


def _load_tokenizer(path: str | Path) -> Tokenizer:
    return Tokenizer.from_json(_require_file(path, "tokenizer").read_text(encoding="utf-8"))


def _load_corpus(path: str | Path) -> list:
    return read_corpus(_require_file(path, "corpus"))


def _parse_components(raw: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in raw.split(",") if p.strip())
    unknown = [p for p in parts if p not in COMPONENT_ORDER]
    if unknown:
        raise ArtifactError(f"unknown components {unknown}, expected among {COMPONENT_ORDER}")
    return parts


def _parse_ks(raw: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ArtifactError(f"cannot parse ks from {raw!r}") from exc
    if not ks:
        raise ArtifactError(f"no ks in {raw!r}")
    return ks


def _check_ks_fit(ks: Sequence[int], vocab: TagVocabulary) -> None:
    """Rankings hold at most one entry per tag, so no cutoff may exceed the tag count."""
    if max(ks) > len(vocab):
        raise EvalError(f"cutoff {max(ks)} exceeds the {len(vocab)} tags in the vocabulary")


def _model_config(options: dict, tok: Tokenizer, num_tags: int) -> ModelConfig:
    components = _parse_components(options["components"])
    encoders = {
        c: EncoderConfig(
            vocab_size=tok.vocab_size,
            layers=options["layers"],
            heads=options["heads"],
            model_dim=options["model_dim"],
            ffn_dim=options["ffn_dim"],
            max_positions=options[f"{c}_len"],
            dropout_rate=options["dropout"],
            pooling=options["pooling"],
        )
        for c in components
    }
    return ModelConfig(
        components=components,
        encoders=encoders,
        num_tags=num_tags,
        share_weights=options["share_weights"],
        truncation=options["truncation"],
    )


def _train_config(options: dict) -> TrainConfig:
    return TrainConfig(
        batch_size=options["batch_size"],
        initial_lr=options["lr"],
        epochs=options["epochs"],
        seed=options["seed"],
        weight_decay=options["weight_decay"],
        warmup_steps=options["warmup_steps"],
        max_grad_norm=options["max_grad_norm"] or None,
    )


def _fit(options: dict, posts: list, tok: Tokenizer, vocab: TagVocabulary) -> tuple[TripletModel, list]:
    """Build the model the options describe and train it on posts; returns it and its loss trace."""
    config = _model_config(options, tok, num_tags=len(vocab))
    train_config = _train_config(options)
    model = TripletModel(config, vocab, seed=options["seed"])
    return model, train(model, build_dataset(posts, tok, config, vocab), train_config)


def _load_model(options: dict) -> tuple[Tokenizer, TripletModel]:
    """The tokenizer and the checkpoint the options name, checked to belong together."""
    vocab = _load_vocab(options["vocab"])
    tok = _load_tokenizer(options["tokenizer"])
    model = load_checkpoint(_require_file(options["checkpoint"], "checkpoint"), vocab)
    trained = sorted({enc.vocab_size for enc in model.config.encoders.values()})
    if trained != [tok.vocab_size]:
        raise ArtifactError(f"tokenizer has {tok.vocab_size} tokens, the checkpoint was trained with {trained}")
    return tok, model


def cmd_ingest(options: dict) -> int:
    dump = _require_file(options["dump"], "dump")
    out = _out_dir(options)
    stats = ParseStats()
    count = write_corpus(decompose_all(parse_dump(dump, stats)), out / "corpus.jsonl")
    write_json(stats.to_json_dict(), out / "ingest_stats.json")
    log.info("ingested %d posts from %d rows into %s", count, stats.rows_total, out)
    return 0


def cmd_build_vocab(options: dict) -> int:
    posts = _load_corpus(options["corpus"])
    out = _out_dir(options)
    vocab = build_tag_vocab(posts, theta=options["theta"])
    kept = filter_posts(posts, vocab)
    with artifact_path(out / "tag_vocab.json") as tmp:
        tmp.write_text(vocab.to_json() + "\n", encoding="utf-8")
    write_corpus(kept, out / "corpus_filtered.jsonl")
    write_json(
        {
            "tags_kept": len(vocab),
            "posts_in": len(posts),
            "posts_kept": len(kept),
            "posts_dropped": len(posts) - len(kept),
        },
        out / "vocab_stats.json",
    )
    log.info("kept %d tags and %d of %d posts", len(vocab), len(kept), len(posts))
    return 0


def cmd_tokenizer_train(options: dict) -> int:
    posts = _load_corpus(options["corpus"])
    out = _out_dir(options)
    text = "\n".join("\n".join(getattr(p, c) for c in COMPONENT_ORDER) for p in posts)
    tok = train_tokenizer(text, vocab_size=options["vocab_size"])
    with artifact_path(out / "tokenizer.json") as tmp:
        tmp.write_text(tok.to_json() + "\n", encoding="utf-8")
    log.info("trained tokenizer with %d merges (vocab %d)", len(tok.merges), tok.vocab_size)
    return 0


def cmd_train(options: dict) -> int:
    held_out = Path(options["out_dir"]) / "test.jsonl"
    if not options["test_count"] and held_out.exists():
        raise ArtifactError(f"{held_out} is a held-out split from an earlier run; remove it or pass --test-count")
    posts = _load_corpus(options["corpus"])
    vocab = _load_vocab(options["vocab"])
    tok = _load_tokenizer(options["tokenizer"])
    out = _out_dir(options)
    test_count = options["test_count"]
    train_posts, test_posts = chronological_split(posts, test_count) if test_count else (posts, [])
    train_posts = filter_posts(train_posts, vocab)
    if not train_posts:
        raise ArtifactError("no training posts left after vocabulary filtering")
    model, trace = _fit(options, train_posts, tok, vocab)
    write_loss_trace(trace, out / "loss_trace.csv")
    save_checkpoint(model, out / "model.ckpt")
    if test_count:
        write_corpus(test_posts, out / "test.jsonl")
        log.info("held out %d newest posts to %s", test_count, out / "test.jsonl")
    log.info("trained %d steps, final loss %.4f, checkpoint %s", len(trace), trace[-1][2], out / "model.ckpt")
    return 0


def cmd_evaluate(options: dict) -> int:
    ks = check_ks(_parse_ks(options["ks"]))
    tok, model = _load_model(options)
    _check_ks_fit(ks, model.vocab)
    posts = filter_posts(_load_corpus(options["corpus"]), model.vocab)
    if not posts:
        raise ArtifactError("no evaluable posts after vocabulary filtering")
    out = _out_dir(options)
    instances = build_eval_instances(model, tok, posts, top_n=max(ks))
    report = evaluate_corpus(instances, ks=ks)
    write_json(report.to_json_dict(), out / "metrics.json")
    report.write_per_instance_csv(out / "per_instance.csv")
    if 5 in ks:
        missed = missed_tag_analysis(instances, [row["f1@5"] for row in report.per_instance])
        write_json({"missed_tags": [{"tag": t, "count": c} for t, c in missed]}, out / "missed_tags.json")
    print(report.format_table())
    return 0


def cmd_predict(options: dict) -> int:
    tok, model = _load_model(options)
    source = options
    if options["post_json"]:
        source = _read_json_object(options["post_json"], "post file")
        unknown = sorted(set(source) - set(COMPONENT_ORDER))
        if unknown:
            raise ArtifactError(
                f"post file {options['post_json']} has unknown fields {unknown}, expected among {list(COMPONENT_ORDER)}"
            )
    texts = {c: source.get(c, "") for c in COMPONENT_ORDER}
    wrong = [c for c in COMPONENT_ORDER if not isinstance(texts[c], str)]
    if wrong:
        raise ArtifactError(f"post file fields must be strings: {wrong}")
    if not any(texts[c].strip() for c in model.config.components):
        raise ArtifactError(f"the post has no text in any component the model reads: {list(model.config.components)}")
    post = DecomposedPost(id=0, creation_date="1970-01-01T00:00:00", tags=("unused",), **texts)
    pred = model.predict(encode_post(post, tok, model.config))
    names = predict_top_k(pred, options["k"])
    tags = [{"tag": n, "probability": float(pred.probabilities[i])} for n, i in zip(names, pred.ranked)]
    print(json.dumps({"tags": tags}, indent=2))
    return 0


def cmd_ablate(options: dict) -> int:
    vocab = _load_vocab(options["vocab"])
    _check_ks_fit(DEFAULT_KS, vocab)
    tok = _load_tokenizer(options["tokenizer"])
    train_posts = filter_posts(_load_corpus(options["corpus"]), vocab)
    test_posts = filter_posts(_load_corpus(options["test_corpus"]), vocab)
    if not train_posts or not test_posts:
        raise ArtifactError("train or test corpus empty after vocabulary filtering")
    out = _out_dir(options)
    components = _parse_components(options["components"])
    if len(components) < 2:
        raise ArtifactError("ablation needs at least two components")

    def run_variant(variant_components: tuple[str, ...]) -> dict:
        model, _ = _fit(options | {"components": ",".join(variant_components)}, train_posts, tok, vocab)
        instances = build_eval_instances(model, tok, test_posts, top_n=max(DEFAULT_KS))
        return evaluate_corpus(instances).to_json_dict()

    full = run_variant(components)
    results, deltas = {"full": full}, {}
    for excluded in components:
        metrics = run_variant(tuple(c for c in components if c != excluded))
        results[f"no_{excluded}"] = metrics
        deltas[f"no_{excluded}"] = {k: metrics["f1"][k] - full["f1"][k] for k in full["f1"]}
    payload = {"variants": results, "f1_delta_vs_full": deltas}
    write_json(payload, out / "ablation.json")
    ks = sorted(full["f1"], key=int)
    print("variant        " + "".join(f"{'dF1@' + k:>10}" for k in ks))
    for variant, d in deltas.items():
        print(f"{variant:<15}" + "".join(f"{d[k]:>10.4f}" for k in ks))
    return 0


def cmd_bench(options: dict) -> int:
    tok, model = _load_model(options)
    posts = _load_corpus(options["corpus"])
    out = _out_dir(options)
    stats = latency_bench(
        model,
        tok,
        posts,
        sample_n=options["sample_n"],
        repeats=options["repeats"],
        seed=options["seed"],
    )
    write_json(stats.to_json_dict(), out / "latency.json")
    print(json.dumps(stats.to_json_dict(), indent=2))
    return 0


def _read_metric_column(path: str | Path, column: str) -> list[float]:
    with open(_require_file(path, "per-instance CSV"), "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise ArtifactError(f"{path}: no column {column!r} (have {reader.fieldnames})")
        try:
            return [float(row[column]) for row in reader]
        except (TypeError, ValueError) as exc:
            raise ArtifactError(f"{path}: non-numeric value in column {column!r}") from exc


def cmd_compare(options: dict) -> int:
    column = options["column"]
    a = _read_metric_column(options["a"], column)
    b = _read_metric_column(options["b"], column)
    if len(a) != len(b):
        raise ArtifactError(f"paired CSVs differ in length: {len(a)} vs {len(b)}")
    p_value = wilcoxon_signed_rank(a, b)
    effect = cliffs_delta(a, b)
    payload = {
        "column": column,
        "n": len(a),
        "wilcoxon_p": p_value,
        "cliffs_delta": effect.delta,
        "magnitude": effect.magnitude,
    }
    if options["out"]:
        write_json(payload, options["out"])
    print(json.dumps(payload, indent=2))
    return 0


def _help(name: str) -> str:
    default, text, _ = SETTINGS[name]
    if default is None:
        return text
    if default is REQUIRED:
        shown = "required"
    elif isinstance(default, bool):
        shown = "on" if default else "off"
    else:
        shown = str(default) or "empty"
    return f"{text} (default: {shown})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tagrec", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tagrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", default=None, help="JSON file with settings for this command (flags win)")
        p.add_argument("--quiet", action="store_true", help="only log errors")
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), default=None, help=_help(name), **SETTINGS[name][2])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.quiet)
    try:
        options = _merge_options(args, COMMANDS[args.command][1])
        # Looked up per call, so a wrapped cmd_* module attribute is the one that runs.
        status = globals()["cmd_" + args.command.replace("-", "_")](options)
        if status == 0 and "out_dir" in options:
            echoed = dict(sorted(options.items()))
            run_config = {"command": args.command, "package_version": __version__, "options": echoed}
            write_json(run_config, Path(options["out_dir"]) / "run_config.json")
        return status
    except (ValueError, OSError) as exc:
        # Bad inputs or artifacts (every validation error subclasses ValueError).
        _emit_error(exc)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, separators=(",", ":"), ensure_ascii=False), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
