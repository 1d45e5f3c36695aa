"""Output checks that do not depend on the random stream.

A change that alters the stream on purpose moves every Monte Carlo value,
so these checks test only what must hold for any stream: the run finished,
both output files exist, every CSV value is finite, the pruning bias stays
within its 1% bound, the limit draws agree with the closed-form mean, and
each summary mean is the mean of the CSV rows it summarizes.  The
experiments' own acceptance checks that fail by design of the model (the
7i means, the 7ii and 8a KS distances, ``ks_decreasing``) are kept with
their values but not counted.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

CSV_COLUMNS = ["experiment", "log_n_or_t", "j", "u", "replica", "value"]
COUNTED_CHECKS = ("bias_fraction<=0.01",)
LIMIT_SE_BOUND = 4.0
_MEAN_KEY = re.compile(r"^mean\((.+)\)$")
_KEY_COLUMN = {"log_n": "log_n_or_t", "t": "log_n_or_t", "j": "j", "u": "u"}


def output_paths(out_dir: str, experiment: str) -> list[str]:
    return [os.path.join(out_dir, f"{experiment}.csv"),
            os.path.join(out_dir, f"{experiment}_summary.json")]


def output_digest(out_dir: str, experiment: str) -> str:
    """sha256 over the CSV bytes followed by the JSON bytes."""
    h = hashlib.sha256()
    for path in output_paths(out_dir, experiment):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_outputs(out_dir: str, experiment: str, record: dict):
    """Return (failures, uncounted) for one CLI run.

    ``record`` is the child's record; it carries ``error`` when the run
    raised and ``limit_mean_oracle`` (u -> closed-form limit mean).
    ``failures`` are messages, each making the run a failed run;
    ``uncounted`` are the experiment's own failed checks, with values.
    """
    if "error" in record:
        return [f"raised: {record['error'].strip().splitlines()[-1]}"], []
    csv_path, json_path = output_paths(out_dir, experiment)
    missing = [p for p in (csv_path, json_path) if not os.path.isfile(p)]
    if missing:
        return [f"missing output {os.path.basename(p)}" for p in missing], []

    csv_failures = []
    rows = _read_rows(csv_path, csv_failures)
    try:
        with open(json_path) as fh:
            payload = json.load(fh)
    except ValueError as exc:
        return csv_failures + [f"summary JSON does not parse: {exc}"], []
    failures, uncounted = [], []
    for check in payload.get("checks", []):
        if check["passed"]:
            continue
        if check["name"] in COUNTED_CHECKS:
            failures.append(f"{check['name']} failed: {check['value']}")
        else:
            uncounted.append(check)
    if csv_failures:  # the row checks need every row
        return csv_failures + failures, uncounted
    failures += _check_limit_means(rows, record.get("limit_mean_oracle", {}))
    failures += _check_summary_means(rows, payload.get("summary", {}))
    return failures, uncounted


def _read_rows(path: str, failures: list) -> list[dict]:
    """Rows with numeric cells as floats (empty cells as None)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            failures.append(f"CSV header is {header}, want {CSV_COLUMNS}")
            return rows
        for line_no, cells in enumerate(reader, start=2):
            if len(cells) != len(CSV_COLUMNS):
                failures.append(f"CSV line {line_no} has {len(cells)} cells")
                return rows
            row = {"experiment": cells[0]}
            for name, cell in zip(CSV_COLUMNS[1:], cells[1:]):
                try:
                    row[name] = float(cell) if cell else None
                except ValueError:
                    row[name] = math.nan
                if row[name] is not None and not math.isfinite(row[name]):
                    failures.append(f"CSV line {line_no}: {name}={cell!r} is not finite")
                    return rows
            rows.append(row)
    return rows


def _check_limit_means(rows, oracle: dict) -> list[str]:
    """Mean of the limit draws within LIMIT_SE_BOUND standard errors of
    (alpha u)^-alpha / Gamma(1-alpha), for every u."""
    failures = []
    by_u: dict[float, list[float]] = {}
    for row in rows:
        if row["experiment"].endswith("/limit"):
            by_u.setdefault(row["u"], []).append(row["value"])
    for u, values in sorted(by_u.items()):
        n = len(values)
        mean = math.fsum(values) / n
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        se = math.sqrt(var / n)
        target = oracle.get(repr(u))
        if target is None:
            failures.append(f"no closed-form limit mean for u={u!r}")
        elif abs(mean - target) > LIMIT_SE_BOUND * se:
            failures.append(f"limit mean at u={u:g} is {mean:.6g}, "
                            f"{abs(mean - target) / se:.1f} SE from {target:.6g}")
    return failures


def _check_summary_means(rows, summary: dict) -> list[str]:
    """Every ``mean(k=v,...)`` summary entry equals the mean of its rows."""
    failures = []
    for key, value in summary.items():
        match = _MEAN_KEY.match(key)
        if not match:
            continue
        want = {}
        for part in match.group(1).split(","):
            name, val = part.split("=")
            want[_KEY_COLUMN[name]] = float(val)
        values = [r["value"] for r in rows
                  if not r["experiment"].endswith("/limit")
                  and all(r[col] == val for col, val in want.items())]
        if not values:
            failures.append(f"summary {key} has no CSV rows")
        elif not math.isclose(math.fsum(values) / len(values), value,
                              rel_tol=1e-9, abs_tol=1e-12):
            failures.append(f"summary {key}={value} differs from its rows' mean "
                            f"{math.fsum(values) / len(values)}")
    return failures
