"""Gold-standard dataset ingestion: RFC-4180 CSV loading, the label mappings
(Jira emotions to polarity, Gerrit's three classes to two), and
class-distribution verification.

Class index order is fixed as [negative, positive] for two-class datasets and
[negative, neutral, positive] for three-class ones, so indices are stable
across runs and checkpoints.
"""

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError, ParseError

CLASS_ORDER_2 = ("negative", "positive")
CLASS_ORDER_3 = ("negative", "neutral", "positive")
GERRIT_ORDER = ("negative", "non-negative")
DISTRIBUTION_TOLERANCE = 0.5  # percentage points, in verify_distribution

# Mapping name -> its table of lowercased CSV labels and the canonical label
# each becomes; a label not in the table is a parse error. "none" keeps
# every label as it is.
LABEL_MAPPINGS = {
    "none": None,
    "jira_emotions": {"love": "positive", "joy": "positive",
                      "anger": "negative", "sadness": "negative"},
    # Positive and neutral collapse into one non-negative class.
    "gerrit_merge": {"negative": "negative", "positive": "non-negative",
                     "neutral": "non-negative", "non-negative": "non-negative"},
}


@dataclass(frozen=True)
class LabeledDataset:
    name: str
    samples: tuple          # (raw text, canonical label string) pairs
    label_set: tuple        # ordered canonical labels; index = class index

    @property
    def class_counts(self) -> dict:
        counts = {lab: 0 for lab in self.label_set}
        for _, lab in self.samples:
            counts[lab] += 1
        return counts

    def labels(self):
        return [self.label_set.index(lab) for _, lab in self.samples]

    def texts(self):
        return [text for text, _ in self.samples]


def _canonical_label_set(labels) -> tuple:
    present = set(labels)
    for order in (CLASS_ORDER_2, CLASS_ORDER_3, GERRIT_ORDER):
        if present == set(order):
            return order
    return tuple(sorted(present))


def load_csv(path, text_column: str, label_column: str, name: str = "",
             label_mapping: str = "none") -> LabeledDataset:
    """Load a (text, label) CSV. Labels are lowercased, then mapped."""
    if label_mapping not in LABEL_MAPPINGS:
        raise ConfigurationError(f"unknown label mapping {label_mapping!r}")
    mapping = LABEL_MAPPINGS[label_mapping]
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    samples = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ParseError(f"{path}: empty file, no header")
            for col in (text_column, label_column):
                if col not in reader.fieldnames:
                    raise ParseError(
                        f"{path}: missing column {col!r}; header has {reader.fieldnames}")
            for row in reader:
                rownum = reader.line_num
                text = (row[text_column] or "").strip()
                label = (row[label_column] or "").strip().lower()
                if not text:
                    raise ParseError(f"{path}: empty text at row {rownum}")
                if not label:
                    raise ParseError(f"{path}: empty label at row {rownum}")
                if mapping is not None:
                    if label not in mapping:
                        raise ParseError(f"{path}: row {rownum}: label {label!r} is not one of "
                                         f"{sorted(mapping)}, the labels that the "
                                         f"{label_mapping} mapping accepts")
                    label = mapping[label]
                samples.append((text, label))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # such as a field over csv's size limit, in the row after line_num
        raise ParseError(f"{path}: row {reader.line_num + 1}: {exc}") from None
    if not samples:
        raise ParseError(f"{path}: no data rows")
    label_set = _canonical_label_set(lab for _, lab in samples)
    if len(label_set) < 2:
        raise ParseError(f"{path}: every row has the label {label_set[0]!r}; "
                         "a classifier needs at least 2 classes")
    return LabeledDataset(name=name or path.stem, samples=tuple(samples), label_set=label_set)


def verify_distribution(ds: LabeledDataset, expected: dict) -> list:
    """Compare observed class percentages with expected ones.

    Returns a list of warning strings; empty means everything matched within
    DISTRIBUTION_TOLERANCE percentage points. Never raises on deviation.
    """
    total_pct = sum(expected.values())
    if abs(total_pct - 100.0) > DISTRIBUTION_TOLERANCE:
        raise ConfigurationError(f"expected percentages sum to {total_pct}, "
                                 f"not 100 +/- {DISTRIBUTION_TOLERANCE}")
    warnings = []
    n = len(ds.samples)
    counts = ds.class_counts
    for label, pct in expected.items():
        observed = 100.0 * counts.get(label, 0) / n
        if abs(observed - pct) > DISTRIBUTION_TOLERANCE:
            warnings.append(
                f"{ds.name}: class {label!r} observed {observed:.1f}%, "
                f"expected {pct:.1f}% (+/- {DISTRIBUTION_TOLERANCE})")
    return warnings


@dataclass(frozen=True)
class DatasetConfig:
    name: str
    path: Path
    text_column: str
    label_column: str
    label_mapping: str = "none"
    expected_samples: int | None = None
    expected_distribution: dict = field(default_factory=dict)


def load_dataset_config(path) -> DatasetConfig:
    """Parse a key=value config file of DatasetConfig fields, each given at most
    once; relative data paths resolve against the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"{path}: no such config file")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values = {}
    # Only "\n" ends a line (read_text folds "\r\n" and "\r" into it), not U+2028 or "\f".
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DatasetConfig.__dataclass_fields__:
            raise ConfigurationError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"{path}: line {lineno}: key {key!r} given twice")
        values[key] = value.strip()
    for required in ("name", "path", "text_column", "label_column"):
        if required not in values:
            raise ConfigurationError(f"{path}: missing required key {required!r}")
    data_path = Path(values["path"])
    if not data_path.is_absolute():
        data_path = path.parent / data_path
    expected_samples = None
    if values.get("expected_samples"):
        try:
            expected_samples = int(values["expected_samples"])
        except ValueError:
            raise ConfigurationError(
                f"{path}: bad expected_samples {values['expected_samples']!r}") from None
    distribution = {}
    if values.get("expected_distribution"):
        for part in values["expected_distribution"].split(","):
            label, _, pct = part.partition(":")
            try:
                distribution[label.strip()] = float(pct)
            except ValueError:
                raise ConfigurationError(
                    f"{path}: bad expected_distribution entry {part!r}") from None
    return DatasetConfig(
        name=values["name"],
        path=data_path,
        text_column=values["text_column"],
        label_column=values["label_column"],
        label_mapping=values.get("label_mapping", "none"),
        expected_samples=expected_samples,
        expected_distribution=distribution,
    )


def load_from_config(config: DatasetConfig) -> tuple:
    """Returns (dataset, warnings from the distribution check)."""
    ds = load_csv(config.path, config.text_column, config.label_column,
                  name=config.name, label_mapping=config.label_mapping)
    warnings = []
    if config.expected_samples is not None and len(ds.samples) != config.expected_samples:
        warnings.append(
            f"{ds.name}: {len(ds.samples)} samples, expected {config.expected_samples}")
    if config.expected_distribution:
        warnings.extend(verify_distribution(ds, config.expected_distribution))
    return ds, warnings
