"""Command-line experiment driver.

Subcommands: crossval (stratified k-fold), learning-curve (bootstrap curve on
a fixed 70/30 split), train (fit once, write a checkpoint) and predict.

Every report file starts with '#'-prefixed manifest comment lines recording
the flags and seed that produced it, so any result is reproducible from the
report alone. Wall-clock timings and timestamps go to a separate
manifest.json, keeping the report files byte-identical across reruns.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime failure,
130 interrupted, 141 output pipe closed.
"""

import argparse
import ctypes
import functools
import io
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import (CLASSIFIER_NAMES, HiCnnLstmClassifier, NaiveBayesClassifier,
                          prepare)
from .datasets import load_dataset_config, load_from_config
from .embeddings import load_vectors
from .errors import ConfigurationError, ParseError, SentihierError
from .evaluation import (check_folds, cross_validate, learning_curve, report_to_csv_rows,
                         report_to_markdown)
from .model import ModelConfig, load_checkpoint, replace_file, save_checkpoint
from .textprep import encode, tokenize_document
from .train import TrainConfig, fit

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


def _parse_overrides(pairs):
    model_over, train_over = {}, {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigurationError(f"override {pair!r} is not key=value")
        if key in model_over or key in train_over:
            raise ConfigurationError(f"--override: key {key!r} is given twice")
        if key in ModelConfig.__dataclass_fields__:
            target, field = model_over, ModelConfig.__dataclass_fields__[key]
        elif key in TrainConfig.__dataclass_fields__:
            target, field = train_over, TrainConfig.__dataclass_fields__[key]
        else:
            raise ConfigurationError(f"unknown override key {key!r}")
        kind = type(field.default)
        try:
            target[key] = kind(value)
        except ValueError:
            raise ConfigurationError(
                f"override {key!r}: cannot read {value!r} as {kind.__name__}") from None
    return model_over, train_over


def _write_report(path: Path, manifest: dict, body_lines):
    header = [f"# {key}: {manifest[key]}" for key in sorted(manifest)]
    replace_file(path, ["".join(line + "\n" for line in [*header, *body_lines]).encode("utf-8")])


def _write_manifest_json(out: Path, manifest: dict, **run_fields):
    """manifest.json: a report manifest plus what no report holds (start time,
    wall-clock timings, warnings)."""
    text = json.dumps({**manifest, **run_fields}, indent=2) + "\n"
    replace_file(out / "manifest.json", [text.encode("utf-8")])


def _manifest(command: str, args, ds, **fields) -> dict:
    """The flags and seed behind a report; `fields` go after dataset_config."""
    return {"command": command, "dataset": ds.name, "dataset_config": str(args.dataset),
            **fields, "seed": args.seed, "embeddings": args.embeddings,
            "overrides": ",".join(args.override or []), "version": __version__}


def _setup(args, specs, folds=None):
    """Read and check every input of a command, cheapest first, before it
    makes any output: the dataset (then crossval's `folds`, through
    `check_folds`), the overrides and the configs they give, then the word
    vectors, which only hicnnlstm reads, and only the rows of the dataset's
    tokens (the classifier checks their dimension, and that its model can be
    allocated). The dataset is tokenized before the vectors, which need its
    tokens. Returns (ds, class indices, classifiers).
    """
    ds, warnings = load_from_config(load_dataset_config(args.dataset))
    if folds is not None:
        check_folds(folds, ds.class_counts)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    model_over, train_over = _parse_overrides(args.override)
    mcfg, tcfg = ModelConfig(**model_over), TrainConfig(**train_over)
    tokenized, labels = prepare(ds)
    table = None
    if "hicnnlstm" in specs and args.embeddings != "random":
        table = load_vectors(args.embeddings, tokenized)  # a missing file: OSError naming it
    classifiers = [HiCnnLstmClassifier(tokenized, labels, mcfg, tcfg, ds.label_set, table,
                                       embedding_seed=args.seed)
                   if spec == "hicnnlstm" else NaiveBayesClassifier(tokenized, labels)
                   for spec in specs]
    return ds, labels, classifiers


def _out(args, directory: bool) -> Path:
    """--out, rejected by name before anything is read if it exists and is not
    a directory where one is made (crossval, learning-curve), or is one (train)."""
    out = Path(args.out)
    if out.exists() and out.is_dir() != directory:
        raise OSError(f"--out {out} exists and is {'not ' if directory else ''}a directory")
    return out


def cmd_crossval(args) -> int:
    out = _out(args, directory=True)
    started = datetime.now(timezone.utc).isoformat()
    ds, labels, (classifier,) = _setup(args, [args.classifier], args.folds)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    fold_results, pooled = cross_validate(classifier.fit, labels, k=args.folds,
                                          seed=args.seed, num_classes=len(ds.label_set))
    total = time.perf_counter() - t0
    manifest = _manifest("crossval", args, ds, classifier=args.classifier, folds=args.folds)
    names = list(ds.label_set)
    for res in fold_results:
        fold_manifest = {**manifest, "fold": res.fold}
        _write_report(out / f"fold_{res.fold}_report.csv", fold_manifest,
                      report_to_csv_rows(res.report, names))
        _write_report(out / f"fold_{res.fold}_report.md", fold_manifest,
                      [report_to_markdown(res.report, names)])
        if res.history is not None:
            _write_report(out / f"fold_{res.fold}_history.csv", fold_manifest,
                          res.history.to_csv_rows())
    _write_report(out / "pooled_report.csv", manifest, report_to_csv_rows(pooled, names))
    _write_report(out / "pooled_report.md", manifest, [report_to_markdown(pooled, names)])
    _write_manifest_json(out, manifest, started=started, total_seconds=total,
                         fold_train_seconds=[r.train_seconds for r in fold_results],
                         fold_test_seconds=[r.test_seconds for r in fold_results])
    print(f"pooled accuracy: {pooled.accuracy:.4f} ({out})")
    return 0


def cmd_learning_curve(args) -> int:
    fractions = []
    for part in args.fractions.split(","):
        try:
            fractions.append(float(part))
        except ValueError:
            raise ConfigurationError(f"--fractions: {part!r} is not a number") from None
    if not (all(a < b for a, b in zip([0.0, *fractions], fractions)) and fractions[-1] <= 1):
        raise ConfigurationError(
            f"--fractions must be strictly ascending and in (0, 1]: {fractions}")
    specs = args.classifier or ["hicnnlstm"]
    for spec in specs:
        if specs.count(spec) > 1:
            raise ConfigurationError(f"--classifier {spec} is given twice")
    out = _out(args, directory=True)
    started = datetime.now(timezone.utc).isoformat()
    ds, labels, classifiers = _setup(args, specs)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest("learning-curve", args, ds, classifiers=",".join(specs),
                         fractions=args.fractions)
    t0 = time.perf_counter()
    combined = ["classifier,fraction,size,accuracy"]
    for spec, classifier in zip(specs, classifiers):
        # the skipped points, and so the warnings, depend only on labels and seed
        points, warnings = learning_curve(classifier.fit, labels, fractions,
                                          seed=args.seed, num_classes=len(ds.label_set))
        rows = ["fraction,size,accuracy"]
        for p in points:
            rows.append(f"{p.fraction},{p.resample_size},{p.test_accuracy!r}")
            combined.append(f"{spec},{p.fraction},{p.resample_size},{p.test_accuracy!r}")
        _write_report(out / f"curve_{spec}.csv", {**manifest, "classifier": spec}, rows)
    _write_report(out / "curve_combined.csv", manifest, combined)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_manifest_json(out, manifest, started=started,
                         total_seconds=time.perf_counter() - t0, warnings=warnings)
    print(f"wrote learning curves for {','.join(specs)} ({out})")
    return 0


def cmd_train(args) -> int:
    out = _out(args, directory=False)
    ds, labels, (classifier,) = _setup(args, ["hicnnlstm"])
    out.parent.mkdir(parents=True, exist_ok=True)
    docs, model = classifier.build(range(len(labels)), args.seed)
    model, history = fit(model, docs, classifier.train_config, args.seed)
    save_checkpoint(model, out)
    _write_report(Path(str(out) + ".history.csv"),
                  _manifest("train", args, ds, classifier="hicnnlstm"), history.to_csv_rows())
    best = history.epochs[history.best_epoch - 1]
    print(f"trained {len(docs)} docs, best epoch {history.best_epoch} "
          f"(val_loss {best.val_loss:.4f}, val_acc {best.val_accuracy:.4f}) -> {out}")
    return 0


def cmd_predict(args) -> int:
    model = load_checkpoint(args.model)  # a missing file is an OSError naming it
    from_stdin = args.input == "-"
    source = "standard input" if from_stdin else args.input
    try:
        text = sys.stdin.read() if from_stdin else Path(args.input).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not UTF-8 text: {exc}") from exc
    # A line ends only at a newline: \r\n and \r read as one, as in a text
    # file, but no other line boundary of str.splitlines ends it.
    docs = (encode(tokenize_document(line), model.vocab)
            for line in io.StringIO(text, newline=None))
    # A non-finite weight makes numpy warn inside the forward pass; the
    # isfinite check below is what reports it, so the warning stays silent.
    with np.errstate(invalid="ignore", over="ignore"):
        for lineno, probs in enumerate(model.probabilities(docs), 1):
            values = probs.tolist()  # Python floats format faster than numpy's
            if not all(map(math.isfinite, values)):  # lines already printed stay printed
                raise SentihierError(f"{source}: line {lineno}: the model gives non-finite "
                                     f"probabilities {values}")
            label = model.labels[values.index(max(values))]  # the first maximum, as argmax
            print(label + "\t" + " ".join(f"{p:.6f}" for p in values))
    return 0


def _seed(text: str) -> int:
    """The type of --seed: numpy takes integer seeds >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


class _StoreOnce(argparse.Action):
    """The default action of every flag: store the value, but reject a flag
    given twice (as typed or abbreviated) instead of keeping the last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given twice")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Its flags, and those of its subcommands, may be given once, unless
    they are declared repeatable (action="append")."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.register("action", None, _StoreOnce)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sentihier",
                     description="Hierarchical CNN-BiLSTM sentiment experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", required=True, help="dataset config file")
        p.add_argument("--seed", type=_seed, default=42)
        p.add_argument("--embeddings", default="random",
                       help="word-vector file (.bin or text) or 'random'")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="model/training config override, repeatable")

    p = sub.add_parser("crossval", help="stratified k-fold cross-validation")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classifier", default="hicnnlstm", choices=CLASSIFIER_NAMES)
    p.add_argument("--folds", type=int, default=10)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("learning-curve", help="bootstrap learning curve")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classifier", action="append", choices=CLASSIFIER_NAMES,
                   help="repeatable; default hicnnlstm")
    p.add_argument("--fractions", default="0.2,0.4,0.6,0.8,1.0")
    p.set_defaults(func=cmd_learning_curve)

    p = sub.add_parser("train", help="fit on a full dataset and save a checkpoint")
    common(p)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels for one document per line")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--input", required=True, help="input file or - for stdin")
    p.set_defaults(func=cmd_predict)
    return parser


@functools.cache
def _one_blas_thread():
    """Set numpy's bundled OpenBLAS, if any, to one thread, once per process:
    how a product is split across threads changes its rounding, and so outputs."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter(1)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _one_blas_thread()
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is met below, not at exit
        return code
    except ConfigurationError as exc:
        return _fail(exc, EXIT_CONFIG)
    except BrokenPipeError:
        # The output's reader is gone (`predict ... | head -1`): exit quietly
        # with 128 + SIGPIPE; stdout's unwritten buffer goes to /dev/null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, OSError) as exc:  # an OSError names its path
        return _fail(exc, EXIT_DATA)
    except (SentihierError, MemoryError) as exc:
        return _fail(exc, EXIT_RUNTIME)
    except ValueError as exc:
        return _fail(exc, EXIT_CONFIG)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _fail(exc, code: int) -> int:
    """Print the error, naming the cross-validation fold or the learning-curve
    fraction it came from, if any."""
    where = "".join(f"{tag} {getattr(exc, tag)}: " for tag in ("fold", "fraction")
                    if hasattr(exc, tag))
    print(f"error: {where}{exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
