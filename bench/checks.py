"""Output checks that do not trust the program.

The reference side applies the zero policy itself and computes every
balance and ratio with numpy from the generated magnitudes; p-values are
checked against mpmath.  Each check returns failure messages prefixed
with its name (``rows:``, ``moments:``, ...), so a test can corrupt one
output and see the matching check fail.

Tolerances: a statistic ``x`` with reference ``r`` must satisfy
``|x - r| <= REL * max(|r|, scale)``, where ``scale`` is the variable's
reference sd (or 1 for t), so near-zero means of balances are compared
on the scale of their spread.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import mpmath
import numpy as np

from workloads import DELTA_FRACTION, Inputs, internal_nodes

REL = 1e-9  # mean, sd, quartiles, t, r_squared, transform coordinates
SHAPE_REL = 1e-7  # skewness and kurtosis: higher moments amplify rounding
P_REL = 1e-8  # program p-value against the mpmath oracle at the same (t, df)
P_SAMPLE = 6
SVG_NS = "{http://www.w3.org/2000/svg}"


@dataclass
class Reference:
    firm_ids: list[str]
    coords: np.ndarray  # (n, D-1) ilr coordinates of kept firms
    variables: list[tuple[str, str, np.ndarray]]  # (name, kind, values)
    yes: np.ndarray | None  # group mask of kept firms; "yes" sorts after "no"

    @property
    def n(self) -> int:
        return len(self.firm_ids)


def reference(inputs: Inputs) -> Reference:
    w = inputs.workload
    X = inputs.X.copy()
    zero = X == 0.0
    keep = np.ones(len(X), dtype=bool)
    if w.zero_mode == "drop_row":
        keep = ~zero.any(axis=1)
    elif w.zero_mode == "replace":
        for j in np.flatnonzero(zero.any(axis=0)):
            X[zero[:, j], j] = DELTA_FRACTION * X[~zero[:, j], j].min()
    X = X[keep]
    col = {label: j for j, label in enumerate(w.parts)}
    logs = np.log(X)
    coords = np.empty((len(X), len(w.parts) - 1))
    for k, (num, den) in enumerate(internal_nodes(w.tree)):
        r, s = len(num), len(den)
        coords[:, k] = math.sqrt(r * s / (r + s)) * (
            logs[:, [col[p] for p in num]].mean(axis=1) - logs[:, [col[p] for p in den]].mean(axis=1)
        )
    variables = []
    for k in range(coords.shape[1]):
        variables.append((f"y{k + 1}", "balance", coords[:, k]))
        variables.append((f"y{k + 1}p", "balance_permuted", -coords[:, k]))
    for name, num, den in w.ratios:
        a = X[:, [col[p] for p in num]].sum(axis=1)
        b = X[:, [col[p] for p in den]].sum(axis=1)
        variables.append((name, "ratio", a / b))
        variables.append((name + "p", "ratio_permuted", b / a))
    return Reference(
        firm_ids=[fid for fid, k in zip(inputs.firm_ids, keep) if k],
        coords=coords,
        variables=variables,
        yes=inputs.brand_yes[keep] if w.group else None,
    )


def _close(x, r, scale=0.0, rel=REL) -> bool:
    return x is not None and abs(x - r) <= rel * max(abs(r), scale)


def _moments(v: np.ndarray) -> dict:
    n = v.size
    dev = v - v.mean()
    m2, m3, m4 = (dev**2).mean(), (dev**3).mean(), (dev**4).mean()
    return {
        "mean": v.mean(),
        "sd": v.std(ddof=1),
        "skewness": math.sqrt(n * (n - 1)) / (n - 2) * m3 / m2**1.5,
        "kurtosis": ((n + 1) * (m4 / m2**2 - 3.0) + 6.0) * (n - 1) / ((n - 2) * (n - 3)),
    }


def _outlier_window(v: np.ndarray, q1: float, q3: float, k: float) -> tuple[int, int]:
    """Smallest and largest count beyond the fences once they move by the tolerance.

    The program's fences come from its own quartiles, which may differ from
    the reference in the last bits, so a point exactly at a fence may fall
    either way.
    """
    iqr = q3 - q1
    lo, hi = q1 - k * iqr, q3 + k * iqr
    slack = REL * max(abs(lo), abs(hi), iqr)
    inner = int(((v < lo - slack) | (v > hi + slack)).sum())
    outer = int(((v < lo + slack) | (v > hi - slack)).sum())
    return inner, outer


def _mpmath_p(t: float, df: int) -> float:
    with mpmath.workdps(30):
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


def _ttest(v: np.ndarray, yes: np.ndarray) -> dict:
    a, b = v[yes], v[~yes]
    na, nb = a.size, b.size
    df = na + nb - 2
    pooled = ((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / df
    t = (a.mean() - b.mean()) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    return {"t": t, "df": df, "r_squared": t * t / (t * t + df)}


@dataclass
class Row:
    """One report variable, whichever format it came from."""

    name: str
    n: int | None
    mean: float | None
    sd: float | None
    skewness: float | None
    kurtosis: float | None
    n_outliers: int
    n_extreme: int
    t: float | None
    df: int | None
    p: float | None
    r_squared: float | None
    box: dict | None = None  # JSON only: q1, median, q3, outlier lists


def _json_rows(doc: dict) -> list[Row]:
    rows = []
    for v in doc["variables"]:
        s, c, b = v["stats"] or {}, v["comparison"] or {}, v["box"]
        rows.append(
            Row(
                name=v["name"],
                n=s.get("n"),
                mean=s.get("mean"),
                sd=s.get("sd"),
                skewness=s.get("skewness"),
                kurtosis=s.get("excess_kurtosis"),
                n_outliers=b["n_outliers"],
                n_extreme=b["n_extreme_outliers"],
                t=c.get("t"),
                df=c.get("df"),
                p=c.get("p"),
                r_squared=c.get("r_squared"),
                box=b,
            )
        )
    return rows


def _csv_rows(text: str) -> list[Row]:
    def num(cell, cast=float):
        return cast(cell) if cell != "" else None

    return [
        Row(
            name=r["variable"],
            n=num(r["n"], int),
            mean=num(r["mean"]),
            sd=num(r["sd"]),
            skewness=num(r["skewness"]),
            kurtosis=num(r["kurtosis"]),
            n_outliers=int(r["n_outliers"]),
            n_extreme=int(r["n_extreme"]),
            t=num(r["t"]),
            df=num(r["df"], int),
            p=num(r["p"]),
            r_squared=num(r["r_squared"]),
        )
        for r in csv.DictReader(io.StringIO(text))
    ]


def check_rows(ref: Reference, rows: list[Row], n_reported: int) -> list[str]:
    fails = []
    if n_reported != ref.n:
        fails.append(f"rows: report says n={n_reported}, expected {ref.n} firms")
    names = [r.name for r in rows]
    expected = [name for name, _, _ in ref.variables]
    if names != expected:
        fails.append(f"rows: variables {names[:6]}... do not match expected {expected[:6]}...")
    for r in rows:
        if r.n != n_reported:
            fails.append(f"rows: {r.name} has n={r.n}, report n={n_reported}")
    return fails


def check_stats(ref: Reference, rows: list[Row], seed: int) -> list[str]:
    fails = []
    sampled = set()
    if ref.yes is not None:
        originals = [name for name, kind, _ in ref.variables if not kind.endswith("_permuted")]
        rng = np.random.default_rng(seed)
        sampled = set(rng.choice(originals, size=min(P_SAMPLE, len(originals)), replace=False))
    for row, (name, _, v) in zip(rows, ref.variables):
        m = _moments(v)
        for key in ("mean", "sd"):
            if not _close(getattr(row, key), m[key], m["sd"]):
                fails.append(f"moments: {name} {key}={getattr(row, key)!r}, reference {m[key]!r}")
        for key in ("skewness", "kurtosis"):
            if not _close(getattr(row, key), m[key], 1.0, SHAPE_REL):
                fails.append(f"shape: {name} {key}={getattr(row, key)!r}, reference {m[key]!r}")
        q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75])
        if row.box is not None:
            for key, r in (("q1", q1), ("median", med), ("q3", q3)):
                if not _close(row.box[key], r, q3 - q1):
                    fails.append(f"quantiles: {name} {key}={row.box[key]!r}, np.quantile {r!r}")
            if len(row.box["outliers"]) != row.n_outliers:
                fails.append(f"outliers: {name} lists {len(row.box['outliers'])} outliers, counts {row.n_outliers}")
        for key, k, got in (("n_outliers", 1.5, row.n_outliers), ("n_extreme", 3.0, row.n_extreme)):
            lo, hi = _outlier_window(v, q1, q3, k)
            if not lo <= got <= hi:
                fails.append(f"outliers: {name} {key}={got}, reference {lo}..{hi}")
        if ref.yes is None:
            continue
        t = _ttest(v, ref.yes)
        if row.df != t["df"]:
            fails.append(f"ttest: {name} df={row.df}, expected {t['df']}")
        if not _close(row.t, t["t"], 1.0):
            fails.append(f"ttest: {name} t={row.t!r}, reference {t['t']!r}")
        if not _close(row.r_squared, t["r_squared"], 1.0 / t["df"]):
            fails.append(f"ttest: {name} r_squared={row.r_squared!r}, reference {t['r_squared']!r}")
        if name in sampled and row.t is not None and row.df:
            p = _mpmath_p(row.t, row.df)
            if row.p is None or abs(row.p - p) > P_REL * p + 1e-300:
                fails.append(f"pvalues: {name} p={row.p!r}, mpmath {p!r} at t={row.t!r}, df={row.df}")
    return fails


def check_twins(rows: list[Row]) -> list[str]:
    """A balance and its permuted twin agree exactly, skewness negated."""
    fails = []
    by_name = {r.name: r for r in rows}
    for r in rows:
        twin = by_name.get(r.name + "p")
        if not r.name.startswith("y") or twin is None:
            continue
        pairs = [
            ("skewness", twin.skewness, -r.skewness if r.skewness is not None else None),
            ("kurtosis", twin.kurtosis, r.kurtosis),
            ("n_outliers", twin.n_outliers, r.n_outliers),
            ("n_extreme", twin.n_extreme, r.n_extreme),
            ("p", twin.p, r.p),
            ("r_squared", twin.r_squared, r.r_squared),
        ]
        for key, got, want in pairs:
            if got != want:
                fails.append(f"twins: {twin.name} {key}={got!r}, {r.name} implies {want!r}")
    return fails


def check_json_report(ref: Reference, data: bytes, seed: int) -> list[str]:
    doc = json.loads(data)
    meta = doc["metadata"]
    rows = _json_rows(doc)
    fails = check_rows(ref, rows, meta["n"])
    if ref.yes is not None:
        n_yes = int(ref.yes.sum())
        expected = [["no", ref.n - n_yes], ["yes", n_yes]]
        if meta["groups"] != expected:
            fails.append(f"rows: groups {meta['groups']}, expected {expected}")
    if fails:
        return fails
    return check_stats(ref, rows, seed) + check_twins(rows)


def check_csv_report(ref: Reference, data: bytes, seed: int) -> list[str]:
    rows = _csv_rows(data.decode("utf-8"))
    fails = check_rows(ref, rows, rows[0].n if rows else -1)
    if fails:
        return fails
    return check_stats(ref, rows, seed) + check_twins(rows)


def check_svg(ref: Reference, data: bytes) -> list[str]:
    root = ET.fromstring(data)
    panels = [g.get("data-variable") for g in root.iter(SVG_NS + "g") if g.get("data-variable") is not None]
    expected = [name for name, _, _ in ref.variables]
    if panels != expected:
        return [f"svg: {len(panels)} panels {panels[:4]}..., expected {len(expected)} {expected[:4]}..."]
    return []


def check_transform(ref: Reference, data: bytes) -> list[str]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    expected_header = ["firm_id"] + [f"y{k + 1}" for k in range(ref.coords.shape[1])]
    if not rows or rows[0] != expected_header:
        return [f"transform: header {rows[0] if rows else None}, expected {expected_header}"]
    body = rows[1:]
    if [r[0] for r in body] != ref.firm_ids:
        return [f"transform: {len(body)} firm rows do not match the {ref.n} kept firms"]
    coords = np.array([[float(c) for c in r[1:]] for r in body])
    bad = np.abs(coords - ref.coords) > REL * np.maximum(np.abs(ref.coords), 1.0)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        return [f"transform: {int(bad.sum())} coordinates off, first {ref.firm_ids[i]} y{k + 1}={coords[i, k]!r}, reference {ref.coords[i, k]!r}"]
    return []


def check_outputs(inputs: Inputs, outputs: dict[str, bytes]) -> list[str]:
    """Check every output file of one run; returns failure messages."""
    w = inputs.workload
    ref = reference(inputs)
    try:
        if w.command == "transform":
            return check_transform(ref, outputs["stdout.txt"])
        if w.report.endswith(".json"):
            fails = check_json_report(ref, outputs[w.report], inputs.seed)
        else:
            fails = check_csv_report(ref, outputs[w.report], inputs.seed)
        if w.svg:
            fails += check_svg(ref, outputs["boxes.svg"])
    except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        return [f"parse: {type(exc).__name__}: {exc}"]
    return fails
