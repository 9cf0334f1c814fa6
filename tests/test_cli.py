import errno
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import desk_model, replace_record, save_word2vec_text, write_dataset_csv
import sentihier
from sentihier import baseline, cli
from sentihier.cli import main
from sentihier.errors import ParseError
from sentihier.model import (CHECKPOINT_VERSION, HiCnnLstmModel, ModelConfig, load_checkpoint,
                             save_checkpoint)
from sentihier.synthetic import make_marker_dataset
from sentihier.train import TrainConfig

FAST_OVERRIDES = [
    "--override", "embedding_dim=12", "--override", "filter_width=2",
    "--override", "num_filters=8", "--override", "sentence_dim=8",
    "--override", "lstm_hidden=6", "--override", "max_epochs=3",
    "--override", "patience=2", "--override", "batch_size=16",
]


@pytest.fixture(scope="module")
def dataset_config(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    ds = make_marker_dataset(80, seed=21)
    write_dataset_csv(ds, tmp / "synthetic.csv")
    cfg = tmp / "synthetic.conf"
    cfg.write_text("\n".join([
        "name = synthetic",
        "path = synthetic.csv",
        "text_column = text",
        "label_column = label",
    ]), encoding="utf-8")
    return cfg


def skewed_config(tmp_path) -> Path:
    """3 positive documents of 40: some bootstrap resamples draw none of
    them, and naive Bayes cannot fit a class with no documents."""
    ds = make_marker_dataset(40, seed=3,
                             class_fractions={"negative": 37 / 40, "positive": 3 / 40})
    write_dataset_csv(ds, tmp_path / "skewed.csv")
    cfg = tmp_path / "skewed.conf"
    cfg.write_text("name = skewed\npath = skewed.csv\ntext_column = text\n"
                   "label_column = label\n", encoding="utf-8")
    return cfg


def with_config(data: bytes, **fields) -> bytes:
    """A checkpoint whose config record has `fields` changed."""
    config = json.loads(data[12 : 12 + int.from_bytes(data[8:12], "little")])
    return replace_record(data, 0, json.dumps({**config, **fields}).encode())


def read_reports(out: Path) -> dict:
    # manifest.json carries wall-clock timings; everything else must be
    # byte-identical across reruns.
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


class TestCrossval:
    def test_nb_run_produces_reports(self, dataset_config, tmp_path):
        out = tmp_path / "out"
        code = main(["crossval", "--dataset", str(dataset_config), "--classifier", "nb",
                     "--folds", "4", "--out", str(out)])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert "pooled_report.csv" in names and "pooled_report.md" in names
        assert "manifest.json" in names
        for fold in range(4):
            assert f"fold_{fold}_report.csv" in names
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["fold_train_seconds"]) == 4

    def test_reports_embed_manifest_comments(self, dataset_config, tmp_path):
        out = tmp_path / "out"
        main(["crossval", "--dataset", str(dataset_config), "--classifier", "nb",
              "--folds", "2", "--out", str(out)])
        text = (out / "pooled_report.csv").read_text()
        header = [l for l in text.splitlines() if l.startswith("#")]
        assert any("seed: 42" in l for l in header)
        assert any("command: crossval" in l for l in header)

    def test_folds_below_two_is_config_error(self, dataset_config, tmp_path, capsys):
        code = main(["crossval", "--dataset", str(dataset_config), "--folds", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "folds must be >= 2" in capsys.readouterr().err

    def test_out_is_required(self, dataset_config, tmp_path, monkeypatch):
        # no environment variable stands in for --out
        monkeypatch.setenv("SENTIHIER_OUT_DIR", str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["crossval", "--dataset", str(dataset_config), "--classifier", "nb",
                  "--folds", "2"])
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main(["crossval", "--dataset", str(tmp_path / "nope.conf"),
                     "--out", str(tmp_path / "x")])
        assert code == 2  # config file missing -> configuration error

    def test_seed_override_is_config_error(self, dataset_config, tmp_path, capsys):
        code = main(["crossval", "--dataset", str(dataset_config), "--classifier", "nb",
                     "--folds", "2", "--override", "seed=1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unknown override key 'seed'" in capsys.readouterr().err

    def test_out_below_a_file_is_data_error(self, dataset_config, tmp_path, capsys):
        blocker = tmp_path / "report.txt"
        blocker.write_text("not a directory", encoding="utf-8")
        code = main(["crossval", "--dataset", str(dataset_config), "--classifier", "nb",
                     "--folds", "2", "--out", str(blocker / "sub")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(blocker / "sub") in err and "Traceback" not in err

    @pytest.mark.parametrize("exc, code", [
        (ParseError("row 3: bad label"), 3),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 2),
        (MemoryError("Unable to allocate 8.00 TiB for an array"), 4),
    ])
    def test_error_inside_a_fold_keeps_exit_code_and_names_fold(
            self, dataset_config, tmp_path, capsys, monkeypatch, exc, code):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(baseline, "nb_fit", fail)
        assert main(["crossval", "--dataset", str(dataset_config), "--classifier", "nb",
                     "--folds", "2", "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: fold 0: {exc}") and "Traceback" not in err

    def test_nb_reads_no_word_vectors(self, dataset_config, tmp_path, capsys):
        vectors = tmp_path / "vectors.bin"
        vectors.write_bytes(b"not a header")
        argv = ["crossval", "--dataset", str(dataset_config), "--folds", "2",
                "--embeddings", str(vectors), *FAST_OVERRIDES]
        assert main([*argv, "--classifier", "nb", "--out", str(tmp_path / "nb")]) == 0
        assert "warning" not in capsys.readouterr().err
        assert main([*argv, "--classifier", "hicnnlstm", "--out", str(tmp_path / "cnn")]) == 3
        assert str(vectors) in capsys.readouterr().err
        assert not (tmp_path / "cnn").exists()

    def test_byte_identical_reruns_nb(self, dataset_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["crossval", "--dataset", str(dataset_config),
                         "--classifier", "nb", "--folds", "3",
                         "--out", str(out)]) == 0
            outs.append(read_reports(out))
        assert outs[0] == outs[1]

    def test_byte_identical_reruns_and_threads_hicnnlstm(self, dataset_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["crossval", "--dataset", str(dataset_config),
                         "--classifier", "hicnnlstm", "--folds", "2",
                         "--out", str(out), *FAST_OVERRIDES]) == 0
            outs.append(read_reports(out))
        assert outs[0] == outs[1]


class TestLearningCurve:
    def test_combined_csv_and_shared_sizes(self, dataset_config, tmp_path):
        out = tmp_path / "curve"
        code = main(["learning-curve", "--dataset", str(dataset_config),
                     "--classifier", "nb", "--classifier", "hicnnlstm",
                     "--fractions", "0.5,1.0", "--out", str(out), *FAST_OVERRIDES])
        assert code == 0

        def sizes(name):
            rows = [l for l in (out / name).read_text().splitlines()
                    if l and not l.startswith(("#", "fraction"))]
            return [r.split(",")[1] for r in rows]

        assert sizes("curve_nb.csv") == sizes("curve_hicnnlstm.csv")
        combined = (out / "curve_combined.csv").read_text()
        assert "nb,0.5" in combined and "hicnnlstm,0.5" in combined

    def test_bad_fraction_is_config_error(self, dataset_config, tmp_path):
        code = main(["learning-curve", "--dataset", str(dataset_config),
                     "--fractions", "0.2,1.5", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_fraction_that_is_not_a_number_names_the_flag(self, dataset_config, tmp_path,
                                                          capsys):
        code = main(["learning-curve", "--dataset", str(dataset_config),
                     "--fractions", "0.5,abc", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--fractions" in err and "'abc'" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seed, skipped", [
        (4, ["0.2"]), (5, []), (6, []), (7, ["1.0"]), (8, ["1.0"])],
        ids=[f"seed-{seed}" for seed in range(4, 9)])
    def test_resample_without_a_class_is_skipped(self, tmp_path, capsys, seed, skipped):
        code = main(["learning-curve", "--dataset", str(skewed_config(tmp_path)),
                     "--classifier", "nb",
                     "--fractions", "0.2,1.0", "--seed", str(seed), "--out", str(tmp_path / "x")])
        assert code == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
        assert [w.split()[2].rstrip(":") for w in warnings] == skipped
        assert all("no document of classes [1], skipped" in w for w in warnings)

    def test_skip_warning_is_reported_once_for_all_classifiers(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["learning-curve", "--dataset", str(skewed_config(tmp_path)),
                     "--classifier", "nb", "--classifier", "hicnnlstm", "--fractions", "0.2,1.0",
                     "--seed", "4", "--out", str(out), *FAST_OVERRIDES])
        assert code == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
        assert len(warnings) == 1 and warnings[0].startswith("warning: fraction 0.2:")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == [warnings[0].removeprefix("warning: ")]

    def test_error_at_a_point_names_the_fraction(self, dataset_config, tmp_path, capsys,
                                                 monkeypatch):
        def fail(*args, **kwargs):
            raise ParseError("row 3: bad label")
        monkeypatch.setattr(baseline, "nb_fit", fail)
        assert main(["learning-curve", "--dataset", str(dataset_config), "--classifier", "nb",
                     "--fractions", "0.5,1.0", "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: fraction 0.5: row 3: bad label") and "Traceback" not in err

    def test_byte_identical_reruns(self, dataset_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["learning-curve", "--dataset", str(dataset_config),
                         "--classifier", "nb", "--fractions", "0.5,1.0",
                         "--out", str(out)]) == 0
            outs.append(read_reports(out))
        assert outs[0] == outs[1]


class TestTrainPredict:
    def test_pipeline(self, dataset_config, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", "--dataset", str(dataset_config),
                     "--out", str(ckpt), *FAST_OVERRIDES])
        assert code == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt",
                                                              "model.ckpt.history.csv"]

        inputs = tmp_path / "inputs.txt"
        inputs.write_text("this build is wonderful. thanks\n\nbroken again\n",
                          encoding="utf-8")
        code = main(["predict", "--model", str(ckpt), "--input", str(inputs)])
        assert code == 0
        lines = capsys.readouterr().out.strip("\n").split("\n")
        assert len(lines) == 3  # empty line still produces a prediction
        for line in lines:
            label, probs = line.split("\t")
            assert label in ("negative", "positive")
            values = [float(p) for p in probs.split()]
            assert len(values) == 2 and abs(sum(values) - 1.0) < 1e-5

    def test_empty_input_prints_nothing(self, dataset_config, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     *FAST_OVERRIDES]) == 0
        capsys.readouterr()
        inputs = tmp_path / "empty.txt"
        inputs.write_bytes(b"")
        assert main(["predict", "--model", str(ckpt), "--input", str(inputs)]) == 0
        assert capsys.readouterr() == ("", "")

    def predicted(self, ckpt, inputs, data: bytes, capsys) -> list:
        """The lines predict prints for an --input file holding `data`."""
        inputs.write_bytes(data)
        assert main(["predict", "--model", str(ckpt), "--input", str(inputs)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out.splitlines()

    def test_predict_ends_a_line_only_at_a_newline(self, tmp_path, capsys):
        # \f, U+2028, \x1c and \x85 are line boundaries to str.splitlines,
        # but inside a line they are whitespace between two words: one output
        # line per newline-ended input line (\n, \r\n or \r), each the same
        # as with a space in their place.
        ckpt, inputs = tmp_path / "model.ckpt", tmp_path / "inputs.txt"
        save_checkpoint(desk_model(), ckpt)
        text = "w2 w3\fw4 w5\nw6\u2028w7 w8\r\nw3\x1cw2\x85w4\rw5\n"
        lines = self.predicted(ckpt, inputs, text.encode("utf-8"), capsys)
        assert len(lines) == 4
        spaced = text.translate({ord(c): " " for c in "\f\u2028\x1c\x85"})
        assert lines == self.predicted(ckpt, inputs, spaced.encode("utf-8"), capsys)

    def test_predict_reads_past_a_utf8_byte_order_mark(self, tmp_path, capsys):
        ckpt, inputs = tmp_path / "model.ckpt", tmp_path / "inputs.txt"
        save_checkpoint(desk_model(), ckpt)
        plain = self.predicted(ckpt, inputs, b"w2 w3\nw4\n", capsys)
        assert self.predicted(ckpt, inputs, b"\xef\xbb\xbfw2 w3\nw4\n", capsys) == plain

    def test_train_writes_history(self, dataset_config, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--dataset", str(dataset_config), "--out", str(ckpt), *FAST_OVERRIDES]
        assert main(argv) == 0
        lines = (tmp_path / "model.ckpt.history.csv").read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        assert "# command: train" in header and "# seed: 42" in header
        rows = lines[len(header):]
        assert rows[0] == "epoch,train_loss,val_loss,val_acc"
        assert [r.split(",")[0] for r in rows[1:]] == [str(e + 1) for e in range(len(rows) - 1)]
        first = (tmp_path / "model.ckpt.history.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "model.ckpt.history.csv").read_bytes() == first

    def test_train_takes_a_seed_beyond_64_bits_with_random_vectors(self, dataset_config,
                                                                   tmp_path, capsys):
        argv = ["train", "--dataset", str(dataset_config), "--seed", str(2**70),
                "--out", str(tmp_path / "model.ckpt"), *FAST_OVERRIDES]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_train_requires_out_before_loading_data(self, dataset_config, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset_config", pytest.fail)
        with pytest.raises(SystemExit) as info:
            main(["train", "--dataset", str(dataset_config)])
        assert info.value.code == 2

    def test_train_rejects_classifier_flag(self, dataset_config, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset_config", pytest.fail)
        with pytest.raises(SystemExit) as info:
            main(["train", "--dataset", str(dataset_config), "--classifier", "nb",
                  "--out", str(tmp_path / "model.ckpt")])
        assert info.value.code == 2

    def test_non_finite_loss_is_runtime_error(self, dataset_config, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(HiCnnLstmModel, "loss_and_grads",
                            lambda self, batch, dropout_rng=None: (float("inf"), {}))
        code = main(["train", "--dataset", str(dataset_config),
                     "--out", str(tmp_path / "model.ckpt"), *FAST_OVERRIDES])
        assert code == 4
        err = capsys.readouterr().err
        assert "epoch 1, batch 1: loss is inf" in err and "Traceback" not in err
        assert not (tmp_path / "model.ckpt").exists()

    def test_interrupt_is_one_line_and_exit_130(self, dataset_config, tmp_path, capsys,
                                                monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "fit", interrupted)
        code = main(["train", "--dataset", str(dataset_config),
                     "--out", str(tmp_path / "model.ckpt"), *FAST_OVERRIDES])
        assert code == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert not (tmp_path / "model.ckpt").exists()

    def test_non_finite_validation_loss_is_runtime_error(self, dataset_config, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(HiCnnLstmModel, "probabilities", lambda model, docs: (
            np.full(len(model.labels), np.nan) for _ in docs))
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     *FAST_OVERRIDES])
        assert code == 4
        err = capsys.readouterr().err
        assert "epoch 1: validation loss is nan" in err and "Traceback" not in err
        assert not ckpt.exists()

    def test_non_utf8_input_is_data_error(self, dataset_config, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     *FAST_OVERRIDES]) == 0
        capsys.readouterr()
        inputs = tmp_path / "utf16.txt"
        inputs.write_bytes(b"\xff\xfeb\x00a\x00d\x00")
        code = main(["predict", "--model", str(ckpt), "--input", str(inputs)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(inputs) in err and "UTF-8" in err and "Traceback" not in err

    def test_non_finite_probabilities_are_runtime_error(self, dataset_config, tmp_path,
                                                         capsys):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     *FAST_OVERRIDES]) == 0
        model = load_checkpoint(ckpt)
        model.conv.filters[0, 0] = float("inf")
        save_checkpoint(model, ckpt)
        capsys.readouterr()
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("this build is wonderful\nbroken again\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["predict", "--model", str(ckpt), "--input", str(inputs)]) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{inputs}: line 1:" in err and "non-finite" in err and "Traceback" not in err

    def test_missing_input_is_data_error(self, dataset_config, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     *FAST_OVERRIDES]) == 0
        capsys.readouterr()
        missing = tmp_path / "missing.txt"
        code = main(["predict", "--model", str(ckpt), "--input", str(missing)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err

    def test_malformed_checkpoint_config_is_data_error(self, dataset_config, tmp_path,
                                                       capsys):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     *FAST_OVERRIDES]) == 0
        capsys.readouterr()
        ckpt.write_bytes(replace_record(ckpt.read_bytes(), 0, b'{"unknown_key": 1}'))
        code = main(["predict", "--model", str(ckpt), "--input", "-"])
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "config record" in err and "Traceback" not in err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: data[:4] + (1).to_bytes(4, "little") + data[8:], "retrain"),
        (lambda data: data[:4] + (2).to_bytes(4, "little") + data[8:], "retrain"),
        (lambda data: data[:4] + (3).to_bytes(4, "little") + data[8:], "retrain"),
        (lambda data: data[:4] + (4).to_bytes(4, "little") + data[8:], "retrain"),
        (lambda data: replace_record(data, 2, b'["negative", "negative"]'),
         "malformed label record"),
        (lambda data: with_config(data, lstm_hidden=10**30), "cannot build the model"),
    ], ids=["version-1", "version-2", "version-3", "version-4", "duplicate-label",
            "too-large-to-build"])
    def test_unreadable_checkpoint_is_data_error(self, dataset_config, tmp_path, capsys,
                                                 corrupt, message):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     *FAST_OVERRIDES]) == 0
        capsys.readouterr()
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        assert main(["predict", "--model", str(ckpt), "--input", "-"]) == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("override", [
        "max_epochs=0", "max_epochs=-3", "batch_size=-1", "batch_size=0", "learning_rate=-1",
        "embedding_dim=abc",
    ])
    def test_unusable_override_is_config_error_naming_the_key(self, dataset_config, tmp_path,
                                                              capsys, monkeypatch, override):
        monkeypatch.setattr(cli, "load_vectors", pytest.fail)  # overrides come first
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     "--embeddings", "vectors.txt", "--override", override])
        assert code == 2
        err = capsys.readouterr().err
        assert override.split("=")[0] in err and "Traceback" not in err
        assert "twice" not in err and not ckpt.exists()

    @pytest.mark.parametrize("override, allowed", [
        ("num_filters=0", ">= 1"),
        ("lstm_hidden=-2", ">= 1"),
    ])
    def test_out_of_range_model_override_names_the_key_and_its_range(
            self, dataset_config, tmp_path, capsys, override, allowed):
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     "--override", override])
        assert code == 2
        err = capsys.readouterr().err
        key, value = override.split("=")
        assert key in err and allowed in err and value in err
        assert "ModelConfig(" not in err and "Traceback" not in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("override", [
        "dense_dropout=0.4", "lstm_dropout=0.2", "max_sentences_per_doc=50", "val_fraction=0.1",
    ], ids=lambda override: override.split("=")[0])
    def test_fixed_setting_is_unknown_override_key(self, dataset_config, tmp_path, capsys,
                                                   override):
        # The dropout rates, the sentence cap and the validation share are
        # constants of the model and of training, not config fields.
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", "--dataset", str(dataset_config), "--out", str(ckpt),
                     "--override", override])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown override key {override.split('=')[0]!r}" in err
        assert "Traceback" not in err and not ckpt.exists()

    @pytest.mark.parametrize("command", [
        ["train", "--out", "model.ckpt"],
        ["crossval", "--classifier", "nb", "--folds", "2", "--out", "cv"],
    ], ids=["train", "crossval-nb"])
    def test_num_classes_override_is_config_error(self, dataset_config, tmp_path, capsys,
                                                  monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        code = main([command[0], "--dataset", str(dataset_config), *command[1:],
                     "--override", "num_classes=3"])
        assert code == 2
        assert "unknown override key 'num_classes'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["train", "--out", "model.ckpt"],
        ["crossval", "--classifier", "nb", "--folds", "2", "--out", "cv"],
    ], ids=["train", "crossval-nb"])
    def test_one_class_dataset_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                             monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        csv_path = tmp_path / "one_class.csv"
        csv_path.write_text("text,label\n" + "".join(f"doc {i} works,positive\n"
                                                      for i in range(20)), encoding="utf-8")
        conf = tmp_path / "one_class.conf"
        conf.write_text("name = one\npath = one_class.csv\ntext_column = text\n"
                        "label_column = label\n", encoding="utf-8")
        assert main([command[0], "--dataset", str(conf), *command[1:]]) == 3
        err = capsys.readouterr().err
        assert str(csv_path) in err and "'positive'" in err and "Traceback" not in err

    def test_out_that_is_a_directory_fails_before_training(self, dataset_config, tmp_path,
                                                           capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset_config", pytest.fail)
        monkeypatch.setattr(cli, "fit", pytest.fail)
        code = main(["train", "--dataset", str(dataset_config), "--out", str(tmp_path),
                     *FAST_OVERRIDES])
        assert code == 3
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Traceback" not in err

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        code = main(["predict", "--model", str(tmp_path / "none.ckpt"), "--input", "-"])
        assert code == 3


@pytest.mark.parametrize("command, named", [
    (["crossval", "--folds", "1"], "folds must be >= 2"),
    (["crossval", "--classifier", "nb", "--override", "num_classes=3"], "num_classes"),
    (["crossval", "--classifier", "nb", "--seed", "-1"], "--seed"),
    (["crossval", "--classifier", "nb", "--folds", "100000"], "--folds"),
    (["crossval", "--embeddings", "missing.txt", "--folds", "100000"], "--folds"),
    # 40 documents per class: folds are dealt class by class, so a 41st holds none
    (["crossval", "--embeddings", "missing.txt", "--folds", "41"],
     "--folds 41 exceeds the 40 documents of the largest class"),
    (["crossval", "--folds", "2", "--override", "lstm_hidden=100000000000"],
     "lstm_hidden=100000000000"),  # beyond a 48-bit address space: nothing is allocated
    (["train", "--override", "num_filters=1000000000000"], "num_filters=1000000000000"),
    (["crossval", "--classifier", "nb", "--override", "max_epochs=1",
      "--override", "max_epochs=2"], "--override"),
    (["learning-curve", "--classifier", "nb", "--override", "max_epochs=0"], "max_epochs"),
    (["learning-curve", "--classifier", "nb", "--fractions", "0.5,0.2"], "--fractions"),
    (["learning-curve", "--classifier", "nb", "--fractions", "0.5,0.5"], "--fractions"),
    (["learning-curve", "--classifier", "nb", "--classifier", "nb"], "--classifier"),
], ids=["crossval-folds-below-two", "crossval-num-classes", "crossval-negative-seed",
        "crossval-folds-above-size", "crossval-folds-above-size-before-word-vectors",
        "crossval-folds-above-largest-class",
        "crossval-model-too-large",
        "train-model-too-large",
        "crossval-repeated-override", "learning-curve-max-epochs",
        "learning-curve-descending-fractions", "learning-curve-repeated-fraction",
        "learning-curve-repeated-classifier"])
def test_rejected_flag_leaves_no_output_directory(dataset_config, tmp_path, capsys, command,
                                                  named):
    out = tmp_path / "out"
    try:
        code = main([command[0], "--dataset", str(dataset_config), *command[1:],
                     "--out", str(out)])
    except SystemExit as exc:  # argparse rejects a flag's value itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["crossval", "learning-curve"])
def test_out_that_is_a_file_is_rejected_before_anything_is_read(tmp_path, capsys, command):
    # The dataset config is missing too, which would exit 2: the --out
    # check must run first.
    out = tmp_path / "m.ckpt"
    out.write_bytes(b"a file")
    code = main([command, "--dataset", str(tmp_path / "missing.conf"), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"--out {out} exists and is not a directory" in err and "Traceback" not in err
    assert out.read_bytes() == b"a file"


def test_closed_output_pipe_exits_141_quietly(tmp_path):
    # Far more than a pipe's 64 KiB of output, of which one line is read
    # before the pipe is closed: the next write fails with EPIPE.
    save_checkpoint(desk_model(), tmp_path / "m.ckpt")
    (tmp_path / "in.txt").write_text("w2 w3. w4\n" * 8000, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(sentihier.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "sentihier.cli", "predict", "--model",
                             str(tmp_path / "m.ckpt"), "--input", str(tmp_path / "in.txt")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"class")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141 and err == b""


@pytest.mark.parametrize("command", [
    ["crossval", "--folds", "2", "--out", "out"],
    ["learning-curve", "--classifier", "nb", "--classifier", "hicnnlstm", "--out", "out"],
    ["train", "--out", "out/model.ckpt"],
], ids=["crossval", "learning-curve", "train"])
def test_word_vectors_of_another_dimension_fail_before_any_output(
        dataset_config, tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    save_word2vec_text({"build": [0.1] * 5, "broken": [0.2] * 5}, tmp_path / "v.txt")
    code = main([command[0], "--dataset", str(dataset_config), "--embeddings", "v.txt",
                 *command[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert "dimension 5" in err and "embedding_dim is 300" in err
    assert "fold" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_error_names_the_flag(dataset_config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_dataset_config", pytest.fail)
    with pytest.raises(SystemExit) as info:
        main(["train", "--dataset", str(dataset_config), "--seed", "-1",
              "--out", str(tmp_path / "model.ckpt")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "'-1'" in err and ">= 0" in err


@pytest.mark.parametrize("argv, flag", [
    (["crossval", "--classifier", "hicnnlstm", "--classifier", "nb"], "--classifier"),
    (["crossval", "--folds", "3", "--folds", "2"], "--folds"),
    (["crossval", "--folds", "3", "--fold", "2"], "--folds"),
    (["crossval", "--seed", "1", "--seed", "5"], "--seed"),
    (["learning-curve", "--fractions", "0.5,1", "--fractions", "1"], "--fractions"),
    (["train", "--embeddings", "random", "--embeddings", "v.txt"], "--embeddings"),
    (["train", "--out", "a"], "--out"),
    (["predict", "--model", "a.ckpt", "--model", "b.ckpt", "--input", "-"], "--model"),
], ids=["classifier", "folds", "folds-abbreviated", "seed", "fractions", "embeddings", "out",
        "model"])
def test_single_valued_flag_given_twice_is_rejected(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_dataset_config", pytest.fail)
    monkeypatch.setattr(cli, "load_checkpoint", pytest.fail)
    if argv[0] != "predict":
        argv = [*argv, "--dataset", "d.conf", "--out", "out"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument {flag}: given twice" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, content, code, message", [
    ("big.csv", b"text,label\nfine,positive\n" + b"x" * 131073 + b",negative\n",
     3, "big.csv: row 3: field larger than field limit"),
    ("latin.csv", b"text,label\nfine,positive\ncaf\xe9,negative\n", 3, "latin.csv: not UTF-8"),
    ("latin.conf", b"# caf\xe9\nname = x\n", 2, "latin.conf: not UTF-8"),
    # would be written unquoted as a sixth field of a five-column report row
    ("comma.csv", b'text,label\nfine,positive\nfine,"good, really"\nbad,negative\n', 3,
     "comma.csv: row 3: label 'good, really'"),
], ids=["csv-field-too-large", "csv-not-utf8", "conf-not-utf8", "csv-label-with-comma"])
def test_unreadable_dataset_file_is_named(tmp_path, capsys, monkeypatch, name, content, code,
                                          message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(content)
    (tmp_path / "d.conf").write_text(f"name = d\npath = {name}\ntext_column = text\n"
                                     "label_column = label\n", encoding="utf-8")
    conf = name if name.endswith(".conf") else "d.conf"
    assert main(["crossval", "--dataset", conf, "--classifier", "nb", "--folds", "2",
                 "--out", "out"]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


README = Path(__file__).parents[1] / "README.md"


def test_readme_lists_every_override_key():
    readme = README.read_text(encoding="utf-8")
    sentence = re.search(r"The `--override` keys are (.*?)\.\s", readme, re.DOTALL)
    assert sentence, "README has no sentence listing the --override keys"
    keys = re.findall(r"`(\w+)`", sentence.group(1))
    assert keys == [*ModelConfig.__dataclass_fields__, *TrainConfig.__dataclass_fields__]


def test_readme_states_the_checkpoint_format_version():
    versions = re.findall(r"format version (\d+)", README.read_text(encoding="utf-8"))
    assert versions, "README states no checkpoint format version"
    assert set(versions) == {str(CHECKPOINT_VERSION)}


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE and SIGXFSZ")
@pytest.mark.parametrize("name, write", [
    ("pooled_report.csv", "cli._write_report(out / 'pooled_report.csv', {}, ['x' * 99] * 99)"),
    ("manifest.json", "cli._write_manifest_json(out, {}, warnings=['x' * 99] * 99)"),
], ids=["report", "manifest"])
def test_failed_report_write_keeps_the_previous_report(tmp_path, name, write):
    # A file size limit below the new report's size makes its write fail
    # with EFBIG part way through, as a full disk would.
    (tmp_path / name).write_bytes(b"# the previous report\n")
    script = ("import resource, signal, sys\n"
              "from pathlib import Path\n"
              "from sentihier import cli\n"
              "out = Path(sys.argv[1])\n"
              "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
              "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
              "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))\n"
              f"{write}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(sentihier.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and f"[Errno {errno.EFBIG}]" in proc.stderr, proc.stderr
    assert (tmp_path / name).read_bytes() == b"# the previous report\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_blas_runs_on_one_thread_whatever_the_environment(dataset_config, tmp_path):
    # How OpenBLAS splits a product across threads changes its rounding, so
    # a run on two threads would write another checkpoint than a run on one.
    script = ("import ctypes, sys\n"
              "from pathlib import Path\n"
              "import numpy as np\n"
              "from sentihier.cli import main\n"
              "def threads():\n"
              "    libs = Path(np.__file__).parent.parent / 'numpy.libs'\n"
              "    for lib in sorted(libs.glob('*openblas*')) if libs.is_dir() else []:\n"
              "        for symbol in ('scipy_openblas_get_num_threads64_',\n"
              "                       'openblas_get_num_threads64_',\n"
              "                       'openblas_get_num_threads'):\n"
              "            getter = getattr(ctypes.CDLL(str(lib)), symbol, None)\n"
              "            if getter is not None:\n"
              "                getter.restype = ctypes.c_int\n"
              "                return getter()\n"
              "before = threads()\n"
              "code = main(sys.argv[1:])\n"
              "print('threads', before, code, threads())\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": str(Path(sentihier.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, "crossval", "--dataset",
                           str(dataset_config), "--classifier", "nb", "--folds", "2",
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    _, before, code, after = proc.stdout.splitlines()[-1].split()
    if before in ("None", "1"):
        pytest.skip(f"numpy's OpenBLAS runs {before} threads when asked for 2")
    assert (before, code, after) == ("2", "0", "1"), proc.stderr
