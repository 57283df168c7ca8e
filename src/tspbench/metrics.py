"""Speedup, efficiency, and the experimentally determined serial
fraction (Karp-Flatt metric) over timing records."""

from collections.abc import Iterable, Mapping
from math import isfinite
from statistics import fmean

from .errors import ValidationError, record


def speedup(t_serial: float, t_parallel: float) -> float:
    """Serial wall time divided by parallel wall time."""
    if t_serial <= 0 or t_parallel <= 0:
        raise ValidationError(f"times must be positive, got {t_serial} and {t_parallel}")
    return t_serial / t_parallel


def efficiency(psi: float, p: int) -> float:
    """Speedup per parallel element: psi / p."""
    if psi <= 0:
        raise ValidationError(f"speedup must be positive, got {psi}")
    if p < 1:
        raise ValidationError(f"parallel elements must be >= 1, got {p}")
    return psi / p


def karp_flatt(psi: float, p: int) -> float:
    """Experimentally determined serial fraction:
    (1/psi - 1/p) / (1 - 1/p).

    Zero for perfect scaling (psi == p), one for no scaling (psi == 1).
    Undefined at p < 2, where the formula degenerates.
    """
    if psi <= 0:
        raise ValidationError(f"speedup must be positive, got {psi}")
    if p < 2:
        raise ValidationError(f"the serial fraction needs p >= 2, got {p}")
    return (1.0 / psi - 1.0 / p) / (1.0 - 1.0 / p)


class TimingRecord(record("TimingRecord", "backend n p runs mean_time")):
    """Wall times for one (backend, n, p) configuration; mean_time is
    the arithmetic mean of the individual runs and is what the derived
    metrics use.  Checked like CostMatrix."""

    __slots__ = ()

    def __new__(cls, backend: str, n: int, p: int, runs: Iterable[float], mean_time: float):
        for name, value in (("n", n), ("p", p)):
            if type(value) is not int:  # the report's reader takes only an int
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        runs = tuple(runs)
        if not runs:
            raise ValidationError("a timing record needs at least one run")
        if any(t <= 0 for t in runs):
            raise ValidationError(f"run times must be positive, got {runs}")
        if not all(map(isfinite, runs)):  # the report's JSON holds no NaN or Infinity
            raise ValidationError(f"run times must be finite, got {runs}")
        expected = fmean(runs)
        if not abs(mean_time - expected) <= 1e-9 * max(1.0, expected):  # a NaN mean fails too
            raise ValidationError(
                f"mean_time {mean_time} does not match the mean of runs ({expected})"
            )
        return super().__new__(cls, backend, n, p, runs, mean_time)

    @classmethod
    def from_runs(cls, backend: str, n: int, p: int, runs: Iterable[float]) -> "TimingRecord":
        runs = tuple(runs)
        return cls(backend=backend, n=n, p=p, runs=runs, mean_time=fmean(runs) if runs else 0.0)


#: Derived metrics for one configuration.  karp_flatt is None when
#: p == 1, where the serial fraction is undefined.
MetricsRow = record("MetricsRow", "backend n p mean_seconds speedup efficiency karp_flatt")


def build_metrics_table(
    records: Iterable[TimingRecord], serial_baseline: Mapping[int, float]
) -> list[MetricsRow]:
    """One MetricsRow per record, computed against the serial baseline
    for the record's problem size; rows come back sorted by
    (backend, n, p)."""
    rows = []
    for record in records:
        if record.n not in serial_baseline:
            raise ValidationError(f"no serial baseline for n={record.n}")
        psi = speedup(serial_baseline[record.n], record.mean_time)
        rows.append(
            MetricsRow(
                backend=record.backend,
                n=record.n,
                p=record.p,
                mean_seconds=record.mean_time,
                speedup=psi,
                efficiency=efficiency(psi, record.p),
                karp_flatt=karp_flatt(psi, record.p) if record.p >= 2 else None,
            )
        )
    rows.sort(key=lambda row: (row.backend, row.n, row.p))
    return rows
