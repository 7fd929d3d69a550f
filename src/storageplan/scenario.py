"""Typical-day selection from hourly demand/renewable time series.

Historical days are clustered hierarchically (Ward linkage) on feature
vectors built from per-bus peak-normalized demand and renewable
profiles; each cluster is represented by its medoid day weighted by the
cluster size, so the weights add up to the number of source days.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, ward

from .datafiles import ParseError, _logical_lines, _num
from .model import TypicalDay

_N_HOURS = 24   # hours in a day block of a profile table


@dataclass
class ProfileSet:
    """Hourly series split into day blocks: arrays of shape [day, hour]."""

    buses: list[str]
    demand: dict[str, np.ndarray]
    renewable: dict[str, np.ndarray]
    n_days: int
    n_hours: int


def load_profiles(text: str, path: str = "<profiles>") -> ProfileSet:
    """Parse an hourly profile table.

    The header row names the columns: ``hour`` followed by distinct
    ``<bus>:demand`` / ``<bus>:renewable`` entries; every following row
    holds one hour.  The number of rows must be a multiple of 24
    (whole days); values must be finite and nonnegative.
    """
    rows: list[list[float]] = []
    header: list[str] | None = None
    for lineno, line in _logical_lines(text):
        toks = line.split()
        if header is None:
            if toks[0].lower() != "hour":
                raise ParseError(path, lineno,
                                 "header must start with 'hour'")
            header = toks[1:]
            if not header:
                raise ParseError(path, lineno, "header names no "
                                 "<bus>:demand or <bus>:renewable column")
            for k, col in enumerate(header):
                parts = col.split(":")
                if len(parts) != 2 or parts[1] not in ("demand", "renewable"):
                    raise ParseError(
                        path, lineno,
                        f"bad column {col!r}; expected <bus>:demand or "
                        "<bus>:renewable")
                if col in header[:k]:
                    raise ParseError(path, lineno, f"duplicate column {col}")
            continue
        if len(toks) != len(header) + 1:
            raise ParseError(path, lineno,
                             f"expected {len(header) + 1} columns, "
                             f"got {len(toks)}")
        vals = []
        for col, tok in zip(header, toks[1:]):
            vals.append(_num(tok, path, lineno))
            if vals[-1] < 0:
                raise ParseError(path, lineno,
                                 f"negative value in column {col}")
        rows.append(vals)
    if header is None:
        raise ParseError(path, 1, "empty profile file")
    if not rows:
        raise ParseError(path, 1, "no data rows")
    if len(rows) % _N_HOURS != 0:
        raise ParseError(path, lineno,   # the last data line
                         f"{len(rows)} rows is not a whole number of "
                         f"{_N_HOURS}-hour days")
    data = np.asarray(rows)
    n_days = len(rows) // _N_HOURS
    demand: dict[str, np.ndarray] = {}
    renewable: dict[str, np.ndarray] = {}
    buses: list[str] = []
    for j, col in enumerate(header):
        bus, kind = col.split(":")
        series = data[:, j].reshape(n_days, _N_HOURS)
        target = demand if kind == "demand" else renewable
        target[bus] = series
        if bus not in buses:
            buses.append(bus)
    return ProfileSet(buses, demand, renewable, n_days, _N_HOURS)


def _feature_matrix(profiles: ProfileSet) -> np.ndarray:
    """One row per day: concatenated per-bus peak-normalized profiles."""
    blocks = []
    for kind in ("demand", "renewable"):
        series = getattr(profiles, kind)
        for b in profiles.buses:
            if b not in series:
                continue
            arr = series[b]
            peak = arr.max()
            blocks.append(arr / peak if peak > 0 else arr)
    return np.hstack(blocks)


def cluster_days(profiles: ProfileSet, k: int) -> list[TypicalDay]:
    """Reduce the source days to ``k`` weighted medoid days.

    The medoid of each cluster is the member closest to the cluster
    centroid in feature space, ties broken towards the lowest source day
    index.  Renewable curtailment is allowed up to the full renewable
    profile of the chosen day; the reserve cost and requirements are
    :class:`~.model.TypicalDay`'s defaults.
    """
    if not (1 <= k <= profiles.n_days):
        raise ValueError(
            f"cluster count must be in [1, {profiles.n_days}], got {k}")
    feats = _feature_matrix(profiles)
    if k == profiles.n_days:
        labels = np.arange(profiles.n_days) + 1
    else:
        linkage = ward(feats)
        labels = fcluster(linkage, t=k, criterion="maxclust")
    days: list[TypicalDay] = []
    for cl in sorted(set(labels)):
        members = np.flatnonzero(labels == cl)
        centroid = feats[members].mean(axis=0)
        dists = np.linalg.norm(feats[members] - centroid, axis=1)
        # argmin takes the first minimum, i.e. the lowest day index
        medoid = int(members[int(np.argmin(dists))])
        demand = {b: tuple(profiles.demand[b][medoid])
                  for b in profiles.demand}
        renewable = {b: tuple(profiles.renewable[b][medoid])
                     for b in profiles.renewable}
        days.append(TypicalDay(
            day_id=f"d{medoid + 1}", weight=float(len(members)),
            n_hours=profiles.n_hours, demand=demand, renewable=renewable,
            spill_max=dict(renewable)))
    days.sort(key=lambda d: int(d.day_id[1:]))
    return days
