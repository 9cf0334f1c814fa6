"""The three benchmark workloads: their inputs, their commands and the checks
on what the commands produced.

Every workload drives the public CLI (`sentihier.cli.main`) with its defaults:
no `--threads`, and the BLAS thread count left as installed. Paths handed to
the CLI are relative to the checkout, so report headers, and with them the
output digests, do not depend on where the checkout lives.
"""

import hashlib
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import corpus

WORK_ROOT = Path(".perfbench_work")

# Quality floor for the pooled macro-F1 of hicnnlstm on crossval-apps. Always
# predicting the majority class scores 0.235 on this corpus; one epoch on the
# generated signal reaches about 0.6.
CROSSVAL_F1_FLOOR = 0.45


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)   # output name -> sha256
    extras: dict = field(default_factory=dict)    # issue-named figures for the summary


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate(seed: int, files: dict) -> list:
    """Writes {path: generator name} in a child process, so that generating
    inputs never counts towards this process's peak memory."""
    specs = [f"{name}={path}" for path, name in files.items()]
    proc = subprocess.run([sys.executable, str(Path(corpus.__file__)), str(seed), *specs],
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"input generation failed: {(proc.stdout + proc.stderr).strip()[-500:]}"]
    return []


def train_small_model(work: Path, seed: int, run_cli):
    """Trains a checkpoint on a small generated corpus at paper dimensions.

    Untimed. It also warms the process: the first training in a process ran
    about 1.5x slower than the next (10.3 s against 6.9 s for one train-jira
    epoch), a cost a user pays once per process, for runs far longer than one
    epoch. Returns (checkpoint path, problems).
    """
    conf = work / "prep.conf"
    conf.write_bytes(corpus.prep_config("prep.csv"))
    problems = generate(seed, {work / "prep.csv": "prep_csv"})
    if problems:
        return None, problems
    problems = _distribution_warnings(conf)
    ckpt = work / "prep.ckpt"
    train = run_cli(["train", "--dataset", str(conf), "--seed", "42",
                     "--override", "max_epochs=1", "--override", "patience=1",
                     "--out", str(ckpt)])
    return ckpt, problems + _cli_problems(train)


def _fresh(work: Path) -> Path:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _shipped_config(root: Path, name: str, work: Path) -> Path:
    """A byte-for-byte copy of configs/<name> placed next to the data it names."""
    conf = work / name
    shutil.copyfile(root / "configs" / name, conf)
    return conf


def _distribution_warnings(conf: Path) -> list:
    from sentihier.datasets import load_dataset_config, load_from_config
    _, warnings = load_from_config(load_dataset_config(conf))
    return [f"{conf.name}: {w}" for w in warnings]


def _cli_problems(cmd) -> list:
    """Exit status, exceptions and warnings of one finished command."""
    problems = []
    if cmd.error:
        problems.append(f"{cmd.argv[0]} raised: {cmd.error}")
    elif cmd.code != 0:
        problems.append(f"{cmd.argv[0]} exited {cmd.code}: {cmd.err.strip()[-300:]}")
    problems += [f"{cmd.argv[0]}: {line}" for line in cmd.err.splitlines()
                 if line.startswith("warning:")]
    return problems


class TrainJira:
    name = "train-jira"
    boundary = "fit"
    epochs = 1

    def prepare(self, root: Path, seed: int, run_cli) -> list:
        self.work = _fresh(WORK_ROOT / self.name)
        self.conf = _shipped_config(root, "jira.conf", self.work)
        from sentihier.datasets import load_dataset_config
        self.docs = sum(corpus.JIRA_COUNTS.values())
        problems = generate(seed, {load_dataset_config(self.conf).path: "jira_csv"})
        if not problems:
            problems = _distribution_warnings(self.conf)
        return problems + train_small_model(self.work, seed, run_cli)[1]

    def op(self):
        return [["train", "--dataset", str(self.conf), "--seed", "42",
                 "--embeddings", "random",
                 "--override", f"max_epochs={self.epochs}",
                 "--override", f"patience={self.epochs}",
                 "--out", str(self.work / "model.ckpt")]]

    def reset(self):
        for path in self.work.glob("model.ckpt*"):
            path.unlink()

    def docs_per_op(self) -> int:
        # Each epoch passes every document once: backward on the training
        # split, forward on the validation split.
        return self.docs * self.epochs

    def check(self, cmds) -> Outcome:
        (cmd,) = cmds
        out = Outcome(attempted=1, problems=_cli_problems(cmd))
        if not out.problems:
            written = sorted(self.work.glob("model.ckpt*"))   # the checkpoint and any sidecar
            if not (self.work / "model.ckpt").is_file():
                out.problems.append("train wrote no checkpoint")
            out.digests = {path.name: sha256(path.read_bytes()) for path in written}
        out.failed = int(bool(out.problems))
        return out


class PredictBatch:
    name = "predict-batch"
    boundary = "forward"

    def prepare(self, root: Path, seed: int, run_cli) -> list:
        self.work = _fresh(WORK_ROOT / self.name)
        self.input = self.work / "lines.txt"
        problems = generate(seed, {self.input: "predict_lines"})
        if problems:
            return problems
        # The checkpoint comes from the code under test's own train command,
        # so it stays valid when the checkpoint format changes.
        self.ckpt, problems = train_small_model(self.work, seed, run_cli)
        if not problems:
            from sentihier.datasets import load_dataset_config, load_from_config
            ds, _ = load_from_config(load_dataset_config(self.work / "prep.conf"))
            self.labels = list(ds.label_set)      # class index order of the probabilities
            self.prep_digest = sha256(self.ckpt.read_bytes())
        self.expected = self.input.read_text(encoding="utf-8").splitlines()
        return problems

    def op(self):
        return [["predict", "--model", str(self.ckpt), "--input", str(self.input)]]

    def reset(self):
        pass

    def docs_per_op(self) -> int:
        return len(self.expected)

    def check(self, cmds) -> Outcome:
        (cmd,) = cmds
        out = Outcome(attempted=len(self.expected), problems=_cli_problems(cmd))
        if out.problems:
            out.failed = out.attempted
            return out
        got = cmd.out.splitlines()
        if len(got) != len(self.expected):
            out.problems.append(f"predict printed {len(got)} lines for {len(self.expected)} inputs")
        bad = [i for i, line in enumerate(got) if not self._valid(line)]
        if bad:
            out.problems.append(f"{len(bad)} malformed output lines, first at line {bad[0] + 1}: "
                                f"{got[bad[0]]!r}")
        out.failed = len(bad) + max(0, len(self.expected) - len(got))
        out.digests["prep.ckpt"] = self.prep_digest
        out.digests["predict.out"] = sha256(cmd.out.encode("utf-8"))
        return out

    def _valid(self, line: str) -> bool:
        """Label in the label set, one finite probability per class summing to 1.

        Probabilities are printed with 6 decimals, so the sum may be off by
        half a unit in the last place per class.
        """
        label, _, rest = line.partition("\t")
        try:
            probs = [float(p) for p in rest.split()]
        except ValueError:
            return False
        if label not in self.labels or len(probs) != len(self.labels):
            return False
        if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs):
            return False
        if abs(sum(probs) - 1.0) > 0.5e-6 * len(probs) + 1e-12:
            return False
        return probs[self.labels.index(label)] == max(probs)


class CrossvalApps:
    name = "crossval-apps"
    boundary = "cross_validate"
    epochs = 1
    folds = 10
    classifiers = ("hicnnlstm", "nb")

    def prepare(self, root: Path, seed: int, run_cli) -> list:
        self.work = _fresh(WORK_ROOT / self.name)
        self.conf = _shipped_config(root, "app_reviews.conf", self.work)
        from sentihier.datasets import load_dataset_config
        self.docs = sum(corpus.APPS_COUNTS.values())
        self.vectors = self.work / "vectors.bin"
        problems = generate(seed, {load_dataset_config(self.conf).path: "apps_csv",
                                   self.vectors: "word2vec_bin"})
        if not problems:
            problems = _distribution_warnings(self.conf)
        return problems + train_small_model(self.work, seed, run_cli)[1]

    def op(self):
        # One epoch at 5x the default learning rate: enough for the quality
        # floor, at the per-document cost of the defaults.
        return [["crossval", "--dataset", str(self.conf), "--seed", "42",
                 "--classifier", clf, "--folds", str(self.folds),
                 "--embeddings", str(self.vectors),
                 "--override", f"max_epochs={self.epochs}",
                 "--override", f"patience={self.epochs}",
                 "--override", "learning_rate=0.005",
                 "--out", str(self.work / clf)] for clf in self.classifiers]

    def reset(self):
        for clf in self.classifiers:
            shutil.rmtree(self.work / clf, ignore_errors=True)

    def docs_per_op(self) -> int:
        return self.docs * len(self.classifiers)

    def check(self, cmds) -> Outcome:
        out = Outcome(attempted=len(cmds))
        for clf, cmd in zip(self.classifiers, cmds):
            problems = _cli_problems(cmd)
            if not problems:
                problems = self._check_reports(clf, out)
            out.failed += int(bool(problems))
            out.problems += problems
        return out

    def _check_reports(self, clf: str, out: Outcome) -> list:
        folder = self.work / clf
        problems = [f"{clf}: no report for fold {fold}" for fold in range(self.folds)
                    if not (folder / f"fold_{fold}_report.csv").exists()]
        pooled = folder / "pooled_report.csv"
        try:
            rows = [line.split(",") for line in pooled.read_text(encoding="utf-8").splitlines()
                    if line and not line.startswith("#")][1:]
            classes = [r for r in rows if r[0] != "accuracy"]
            support = sum(int(r[4]) for r in classes)
            f1_macro = sum(float(r[3]) for r in classes) / len(classes)
        except (OSError, ValueError, IndexError, ZeroDivisionError) as exc:
            return problems + [f"{clf}: unreadable {pooled}: {exc!r}"]
        if support != self.docs:
            problems.append(f"{clf}: pooled support {support}, corpus has {self.docs} docs")
        out.extras["crossval_f1_macro" if clf == "hicnnlstm" else f"crossval_{clf}_f1_macro"] = f1_macro
        if clf == "hicnnlstm" and not f1_macro > CROSSVAL_F1_FLOOR:
            problems.append(f"hicnnlstm pooled macro-F1 {f1_macro:.4f} "
                            f"is not above the floor {CROSSVAL_F1_FLOOR}")
        for path in sorted(folder.iterdir()):
            if path.name != "manifest.json":   # wall-clock timings live there
                out.digests[f"{clf}/{path.name}"] = sha256(path.read_bytes())
        return problems


WORKLOADS = {w.name: w for w in (TrainJira, PredictBatch, CrossvalApps)}
