"""Loading, validation and splitting of time-series collections.

Two on-disk formats are supported:

* CSV with header ``id,category,m,h,values`` where ``values`` is a
  semicolon-separated list of decimals.
* JSON: an array of objects with the same fields, ``values`` as a numeric
  array.  :func:`serialize_collection` writes the canonical JSON form and
  round-trips byte-identically through :func:`load_collection`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import DataFormatError, SeriesValidationError


@dataclass(frozen=True)
class TimeSeries:
    """A strictly positive series with periodicity ``m`` and horizon ``h``."""

    id: str
    values: tuple[float, ...]
    m: int = 1
    h: int = 1
    category: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        self.validate()

    def validate(self) -> None:
        if not self.id:
            raise SeriesValidationError("empty id", series_id=self.id)
        if self.m < 1:
            raise SeriesValidationError(f"periodicity m={self.m} must be >= 1", series_id=self.id)
        if self.h < 1:
            raise SeriesValidationError(f"horizon h={self.h} must be >= 1", series_id=self.id)
        if len(self.values) < 2:
            raise SeriesValidationError(
                f"length {len(self.values)} < 2", series_id=self.id
            )
        for i, v in enumerate(self.values):
            if not (math.isfinite(v) and v > 0.0):
                raise SeriesValidationError(
                    f"non-positive or non-finite value {v!r}", series_id=self.id, index=i
                )

    @property
    def length(self) -> int:
        return len(self.values)

    def is_seasonal_capable(self) -> bool:
        """True when the series is long enough for a seasonal fit (>= 2m)."""
        return self.m >= 2 and self.length >= 2 * self.m


@dataclass(frozen=True)
class TrainTestSplit:
    """Holdout split: last ``h`` points withheld for evaluation."""

    train: TimeSeries
    test: tuple[float, ...]

    def rejoined(self) -> tuple[float, ...]:
        return self.train.values + self.test


def split(series: TimeSeries) -> TrainTestSplit:
    """Withhold the final ``h`` observations of ``series``.

    Raises ``SeriesValidationError`` when the series is not longer than its
    horizon.
    """
    if series.length <= series.h:
        raise SeriesValidationError(
            f"cannot split: length {series.length} <= horizon {series.h}",
            series_id=series.id,
        )
    train = TimeSeries(
        id=series.id,
        values=series.values[: series.length - series.h],
        m=series.m,
        h=series.h,
        category=series.category,
    )
    return TrainTestSplit(train=train, test=series.values[series.length - series.h:])


def _series_from_record(rec: dict, index: int) -> TimeSeries:
    try:
        values = rec["values"]
        if isinstance(values, str):
            values = [float(tok) for tok in values.split(";") if tok != ""]
        return TimeSeries(
            id=str(rec["id"]),
            values=tuple(float(v) for v in values),
            m=int(rec["m"]),
            h=int(rec["h"]),
            category=rec.get("category") or None,
        )
    except SeriesValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(str(exc), record_index=index) from exc


def load_collection(path: str | Path, format: str | None = None) -> list[TimeSeries]:
    """Load a collection file, preserving record order.

    ``format`` is ``"csv"`` or ``"json"``; when omitted it is inferred from
    the file suffix.  Series ids name the record files of a benchmark run,
    so each must be unique and a plain file name.
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format not in ("csv", "json"):
        raise DataFormatError(f"unknown format {format!r}")

    text = path.read_text()
    if format == "json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON: {exc}", record_index=None) from exc
        if not isinstance(raw, list):
            raise DataFormatError("top-level JSON value must be an array")
        records = raw
    else:
        records = csv.DictReader(text.splitlines())
        expected = {"id", "category", "m", "h", "values"}
        if records.fieldnames is None or set(records.fieldnames) != expected:
            raise DataFormatError(
                f"CSV header must be exactly {sorted(expected)}, got {records.fieldnames}"
            )

    out: list[TimeSeries] = []
    seen: set[str] = set()
    for i, rec in enumerate(records):
        series = _series_from_record(rec, i)
        if series.id in (".", "..") or "/" in series.id or "\\" in series.id:
            raise DataFormatError(f"series id {series.id!r} is not a plain file name", record_index=i)
        if series.id in seen:
            raise DataFormatError(f"duplicate series id {series.id!r}", record_index=i)
        seen.add(series.id)
        out.append(series)
    return out


def serialize_collection(collection: Sequence[TimeSeries], path: str | Path) -> None:
    """Write the canonical JSON form (stable field order, 2-space indent)."""
    records = []
    for ts in collection:
        records.append(
            {
                "id": ts.id,
                "category": ts.category,
                "m": ts.m,
                "h": ts.h,
                "values": list(ts.values),
            }
        )
    Path(path).write_text(json.dumps(records, indent=2) + "\n")
