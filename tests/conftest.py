import csv
import io

import numpy as np
import pytest

from coda_ratios import parse_sbp


@pytest.fixture
def liability_tree():
    # assets split from both liability classes, then the two liability classes
    return parse_sbp("(TA|(NCL|CL))")


def random_tree(rng: np.random.Generator, labels):
    """Random sequential binary partition over the given labels, as nested pairs."""
    labels = list(labels)
    rng.shuffle(labels)

    def build(group):
        if len(group) == 1:
            return group[0]
        cut = int(rng.integers(1, len(group)))
        return (build(group[:cut]), build(group[cut:]))

    return build(labels)


def tree_text(sub) -> str:
    """The DSL text of a nested-pairs tree."""
    return sub if isinstance(sub, str) else f"({tree_text(sub[0])}|{tree_text(sub[1])})"


def random_tree_text(rng: np.random.Generator, labels) -> str:
    """Random sequential binary partition over the given labels."""
    return tree_text(random_tree(rng, labels))


def random_composition(rng: np.random.Generator, labels, n: int = 1) -> np.ndarray:
    """(n, D) strictly positive random compositions spanning several magnitudes."""
    return np.exp(rng.uniform(-4.0, 8.0, size=(n, len(labels))))


def csv_text(rows) -> str:
    """``rows`` as CSV lines ending in LF, each field quoted when it holds ',', '"', CR or LF.

    csv.writer quotes a field holding any character of its line terminator, so with
    CR LF as the terminator it quotes by this rule on every Python version.
    """
    lines = []
    for row in rows:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines)
