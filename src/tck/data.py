"""Containers and file I/O for incompletely observed multivariate time series.

A series is a V x T grid of real values paired with a binary observation
mask of the same shape; a cell is meaningful only where its mask bit is 1.
Datasets bundle N such series with optional integer class labels
(0 = unlabeled, 1..n_classes otherwise).
"""
from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np


# Largest magnitude of an observed value. Below it every component score of
# every base model is finite: a fitted variance is at least n0 s^2 / (n0 + NT),
# with n0 >= 0.001 and build_prior's scale floor s >= 1e-6, and a squared
# deviation (at most ~4e200) divided by it stays far below the largest float.
_LARGEST_OBSERVED = 1e100


class FormatError(ValueError):
    """A dataset or label file violates the declared schema."""


@dataclass
class Dataset:
    """A collection of equally shaped masked series.

    values : (N, V, T) float array; entries are only meaningful where mask=1
    mask   : (N, V, T) array in {0, 1}
    labels : (N,) int array with 0 for unlabeled series, or None
    n_classes : number of classes the labels are drawn from
    ids    : (N,) unique integer series identifiers
    """

    values: np.ndarray
    mask: np.ndarray
    labels: np.ndarray | None
    n_classes: int
    ids: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        # Checked before the cast, which would turn 0.5 or 256 into 0 or 1.
        mask = np.asarray(self.mask)
        if not ((mask == 0) | (mask == 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        self.mask = mask.astype(np.uint8, copy=False)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.values.ndim != 3 or self.values.shape != self.mask.shape:
            raise ValueError("values and mask must both have shape (N, V, T)")
        if self.ids.shape != (self.values.shape[0],):
            raise ValueError("ids must have one entry per series")
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("series ids must be unique")
        # One pass: NaN fails the comparison, and so does any value above
        # the bound, which could make the scores of its series -inf.
        bad = np.argwhere(self.mask.astype(bool)
                          & ~(np.abs(self.values) <= _LARGEST_OBSERVED))
        if bad.size:
            i, v, t = bad[0]
            x = self.values[i, v, t]
            cell = f"{x} in observed cell (attribute {v + 1}, time {t + 1})"
            if not np.isfinite(x):
                raise ValueError(f"series {self.ids[i]}: non-finite value {cell}")
            raise ValueError(f"series {self.ids[i]}: value {cell} exceeds "
                             f"{_LARGEST_OBSERVED:g} in magnitude")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.values.shape[0],):
                raise ValueError("labels must have one entry per series")
            if self.labels.size and (
                self.labels.min() < 0 or self.labels.max() > self.n_classes
            ):
                raise ValueError("labels must lie in [0, n_classes]")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.values.shape[1]

    @property
    def length(self) -> int:
        return self.values.shape[2]

    def take(self, indices) -> "Dataset":
        """Row subset (copies), labels and ids travel with the rows."""
        indices = np.asarray(indices)
        if indices.size == 0:       # np.asarray([]) is float64
            indices = indices.astype(np.int64)
        labels = None if self.labels is None else self.labels[indices]
        return Dataset(self.values[indices], self.mask[indices], labels,
                       self.n_classes, self.ids[indices])

    def restrict(self, attributes=None, time=None) -> "Dataset":
        """View on a subset of attributes and/or a contiguous time window."""
        values, mask = self.values, self.mask
        if attributes is not None:
            attributes = np.asarray(attributes)
            values = values[:, attributes, :]
            mask = mask[:, attributes, :]
        if time is not None:
            t0, t1 = time
            values = values[:, :, t0:t1]
            mask = mask[:, :, t0:t1]
        return Dataset(values, mask, self.labels, self.n_classes, self.ids)

    def one_hot(self) -> np.ndarray:
        """(N, n_classes) indicator matrix; unlabeled series give zero rows."""
        if self.labels is None:
            raise ValueError("dataset has no labels")
        return labels_to_onehot(self.labels, self.n_classes)


def labels_to_onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((len(labels), n_classes))
    present = labels > 0
    out[np.nonzero(present)[0], labels[present] - 1] = 1.0
    return out


# ------------------------------------------------------------
# Long-format CSV I/O
# ------------------------------------------------------------

_DATA_HEADER = "series_id,attribute,time,value"
_LABEL_HEADER = "series_id,label"
# The metadata keys, each with its smallest allowed value.
_METADATA_MIN = {"N": 0, "V": 1, "T": 1, "N_c": 0}
# One data row as the fast reader parses it.
_CELL_DTYPE = [("series_id", np.int64), ("attribute", np.int64),
               ("time", np.int64), ("value", np.float64)]


def _parse_metadata(line: str, path) -> dict:
    if not line.startswith("#"):
        raise FormatError(f"{path}: first line must be a '# N=..,V=..,T=..,N_c=..' header")
    meta = {}
    for item in line.lstrip("#").strip().split(","):
        if "=" not in item:
            raise FormatError(f"{path}: malformed metadata item {item!r}")
        key, _, value = item.partition("=")
        meta[key.strip()] = value.strip()
    try:
        dims = {k: int(meta[k]) for k in _METADATA_MIN}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: metadata must declare integer N, V, T, N_c") from exc
    for key, least in _METADATA_MIN.items():
        if dims[key] < least:
            raise FormatError(f"{path}: metadata {key}={dims[key]} must be at "
                              f"least {least}")
    return dims


def load_dataset(path, label_path=None) -> Dataset:
    """Read a long-format data CSV (plus optional label CSV) into a Dataset.

    Each data row gives one observed cell as ``series_id,attribute,time,value``
    with 1-based integer indices; cells without a row are missing. The first
    line is a comment declaring the dataset dimensions, e.g.
    ``# N=400,V=2,T=50,N_c=2``.

    The data rows are read in one C-level pass when they are plainly well
    formed; any other file goes through a line-by-line reader, which accepts
    the same files, reads the same values and names the line at fault.
    """
    with open(path) as fh:
        text = fh.read()
    if not text:
        raise FormatError(f"{path}: empty file, expected a metadata header")
    first, _, rest = text.partition("\n")
    meta = _parse_metadata(first, path)
    n, v_dim, t_dim, n_classes = meta["N"], meta["V"], meta["T"], meta["N_c"]
    header, _, body = rest.partition("\n")
    if header.strip() != _DATA_HEADER:
        raise FormatError(f"{path}: expected header '{_DATA_HEADER}'")

    cells = _read_cells_fast(body, n, v_dim, t_dim)
    values, mask = cells or _read_cells(body.split("\n"), path, n, v_dim, t_dim)
    labels = None if label_path is None else _read_labels(label_path, n, n_classes)
    return Dataset(values, mask, labels, n_classes, np.arange(1, n + 1))


def _read_cells_fast(body: str, n: int, v_dim: int, t_dim: int):
    """(values, mask) of the data rows from one ``np.loadtxt`` call, or None
    when the rows are not plainly well formed: a field loadtxt cannot read,
    an index out of range or a duplicate cell. loadtxt skips empty lines,
    as ``_read_cells`` does.

    Non-ASCII text also returns None, as do the ASCII separators
    0x1c-0x1f: loadtxt reads some non-ASCII digits as other numbers than
    ``int`` does (U+0968, a two, as 2360) and strips those separators as
    whitespace, where ``int`` and ``float`` reject the field. On everything
    else the two agree, value for value.
    """
    if (not body.strip() or not body.isascii()
            or any(c in body for c in "\x1c\x1d\x1e\x1f")):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), dtype=_CELL_DTYPE, delimiter=",",
                          comments=None, ndmin=1)
    except ValueError:
        return None
    sid, attr, t = rows["series_id"], rows["attribute"], rows["time"]
    if ((sid < 1) | (sid > n) | (attr < 1) | (attr > v_dim)
            | (t < 1) | (t > t_dim)).any():
        return None
    cell = ((sid - 1) * v_dim + attr - 1) * t_dim + t - 1
    mask = np.zeros(n * v_dim * t_dim, dtype=np.uint8)
    mask[cell] = 1
    if np.count_nonzero(mask) != len(cell):
        return None                     # a duplicate cell
    values = np.zeros(n * v_dim * t_dim)
    values[cell] = rows["value"]
    shape = (n, v_dim, t_dim)
    return values.reshape(shape), mask.reshape(shape)


def _read_cells(lines: list, path, n: int, v_dim: int, t_dim: int):
    """(values, mask) of the data rows, read one line at a time; the first
    line is line 3 of the file. This is the reference reader, and it words
    every error."""
    values = np.zeros((n, v_dim, t_dim))
    mask = np.zeros((n, v_dim, t_dim), dtype=np.uint8)
    for ln_no, raw in enumerate(lines, start=3):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 4:
            raise FormatError(f"{path}:{ln_no}: expected 4 fields, got {len(parts)}")
        try:
            sid, attr, t = int(parts[0]), int(parts[1]), int(parts[2])
            val = float(parts[3])
        except ValueError as exc:
            raise FormatError(f"{path}:{ln_no}: malformed row {raw!r}") from exc
        if not (1 <= sid <= n):
            raise FormatError(f"{path}:{ln_no}: series_id {sid} outside [1, {n}]")
        if not (1 <= attr <= v_dim):
            raise FormatError(f"{path}:{ln_no}: attribute {attr} outside [1, {v_dim}]")
        if not (1 <= t <= t_dim):
            raise FormatError(f"{path}:{ln_no}: time {t} outside [1, {t_dim}]")
        if mask[sid - 1, attr - 1, t - 1]:
            raise FormatError(f"{path}:{ln_no}: duplicate cell ({sid},{attr},{t})")
        values[sid - 1, attr - 1, t - 1] = val
        mask[sid - 1, attr - 1, t - 1] = 1
    return values, mask


def _read_labels(path, n: int, n_classes: int) -> np.ndarray:
    """(n,) labels from a label CSV; series without a row or with an empty
    label field are unlabeled (0)."""
    labels = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0].strip() != _LABEL_HEADER:
        raise FormatError(f"{path}: expected header '{_LABEL_HEADER}'")
    for ln_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}:{ln_no}: expected 2 fields")
        try:
            sid = int(parts[0])
        except ValueError as exc:
            raise FormatError(f"{path}:{ln_no}: bad series_id") from exc
        if not (1 <= sid <= n):
            raise FormatError(f"{path}:{ln_no}: series_id {sid} outside [1, {n}]")
        if seen[sid - 1]:
            raise FormatError(f"{path}:{ln_no}: duplicate label row for "
                              f"series_id {sid}")
        seen[sid - 1] = True
        text = parts[1].strip()
        if not text:
            continue  # unlabeled
        try:
            label = int(text)
        except ValueError as exc:
            raise FormatError(f"{path}:{ln_no}: bad label {text!r}") from exc
        if not (1 <= label <= n_classes):
            raise FormatError(
                f"{path}:{ln_no}: label {label} outside [1, {n_classes}]")
        labels[sid - 1] = label
    return labels


def save_dataset(data: Dataset, path, label_path=None) -> None:
    """Write a Dataset back to the long-format CSV (inverse of load_dataset).

    Series are written in id order and re-numbered 1..N, so a freshly loaded
    file round-trips bit-exactly.
    """
    order = np.argsort(data.ids)
    with open(path, "w") as fh:
        fh.write(f"# N={data.n},V={data.n_attributes},T={data.length},N_c={data.n_classes}\n")
        fh.write(_DATA_HEADER + "\n")
        for row, i in enumerate(order, start=1):
            vs, ts = np.nonzero(data.mask[i])
            for v, t in zip(vs, ts):
                fh.write(f"{row},{v + 1},{t + 1},{data.values[i, v, t]:.17g}\n")
    if label_path is not None:
        with open(label_path, "w") as fh:
            fh.write(_LABEL_HEADER + "\n")
            for row, i in enumerate(order, start=1):
                label = "" if data.labels is None or data.labels[i] == 0 else str(int(data.labels[i]))
                fh.write(f"{row},{label}\n")


# ------------------------------------------------------------
# Preprocessing
# ------------------------------------------------------------

@dataclass(frozen=True)
class StandardizationStats:
    """Per-attribute location/scale computed over observed entries only."""

    mean: np.ndarray      # (V,)
    std: np.ndarray       # (V,) sample standard deviation; 0 for constants

    def apply(self, data: Dataset) -> Dataset:
        """Transform observed cells; cells under mask=0 are left untouched."""
        if data.n_attributes != len(self.mean):
            raise ValueError(
                f"schema mismatch: statistics cover {len(self.mean)} attributes "
                f"but the dataset has {data.n_attributes}")
        mean = self.mean[None, :, None]
        spread = (self.std > 0)[None, :, None]
        scaled = (data.values - mean) / np.where(spread, self.std[None, :, None], 1.0)
        scaled = np.where(spread, scaled, 0.0)
        new_values = np.where(data.mask.astype(bool), scaled, data.values)
        return replace(data, values=new_values, mask=data.mask.copy())


def observed_moments(values: np.ndarray, mask: np.ndarray) -> tuple:
    """Per-attribute (mean, sample std) over the observed cells of (N, V, T)
    ``values``; std is 0 for a single cell, and an unobserved attribute fails."""
    mean, std = np.zeros(values.shape[1]), np.zeros(values.shape[1])
    for v in range(values.shape[1]):
        cells = values[:, v, :][mask[:, v, :] != 0]
        if cells.size == 0:
            raise ValueError(f"attribute {v + 1} has no observed entries")
        mean[v] = cells.mean()
        std[v] = cells.std(ddof=1) if cells.size > 1 else 0.0
    return mean, std


def standardize(data: Dataset) -> tuple[Dataset, StandardizationStats]:
    """Scale every attribute to zero mean / unit sample std over observed cells.

    Attributes without spread (including single-observation ones) get std 0
    and are mapped to 0; an attribute with no observed cell at all is an
    error.
    """
    stats = StandardizationStats(*observed_moments(data.values, data.mask))
    return stats.apply(data), stats


def concat_mask(data: Dataset) -> Dataset:
    """Append the observation mask as V extra fully observed real attributes."""
    values = np.concatenate([data.values, data.mask.astype(float)], axis=1)
    mask = np.concatenate([data.mask, np.ones_like(data.mask)], axis=1)
    return replace(data, values=values, mask=mask)


def zero_impute(data: Dataset) -> Dataset:
    """Replace missing cells with 0 and mark everything observed."""
    values = np.where(data.mask.astype(bool), data.values, 0.0)
    return replace(data, values=values, mask=np.ones_like(data.mask))

