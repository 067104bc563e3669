import math

import numpy as np
import pytest

from coda_ratios import (
    FirmDataset,
    RatioSpec,
    contrast_matrix,
    ilr_inverse,
    ilr_matrix,
    parse_sbp,
    validate_tree,
)
from coda_ratios.errors import (
    CodaError,
    DuplicateLabelError,
    LabelMismatchError,
    LengthMismatchError,
    NonPositivePartError,
    UnknownLabelError,
)
from coda_ratios.sbp import check_known

from conftest import random_composition, random_tree, random_tree_text, reference_splits, tree_text

LIABILITIES = ("TA", "NCL", "CL")


def _one_firm(labels, values):
    return FirmDataset(firm_ids=("f1",), part_labels=labels, values=[values])


def _distance(X, Z, labels, tree):
    """Aitchison distance of each row of X to the same row of Z: the norm of the ilr difference."""
    return np.linalg.norm(ilr_matrix(X, labels, tree) - ilr_matrix(Z, labels, tree), axis=1)


# ---------------------------------------------------------------------------
# a composition is one row of a FirmDataset; its checks are the dataset's


def test_composition_accepts_positive_parts():
    ds = _one_firm(LIABILITIES, (8, 2, 2))
    assert ds.part_labels == LIABILITIES
    assert ds.values.tolist() == [[8.0, 2.0, 2.0]]


def test_composition_rejects_zero_and_negative():
    with pytest.raises(NonPositivePartError) as err:
        _one_firm(LIABILITIES, (8, 0, 2))
    assert err.value.parts == (("f1:NCL", 0.0),)

    with pytest.raises(NonPositivePartError) as err:
        _one_firm(LIABILITIES, (8, -1, 2))
    assert err.value.parts == (("f1:NCL", -1.0),)


def test_composition_lists_every_offender():
    with pytest.raises(NonPositivePartError) as err:
        _one_firm(("a", "b", "c", "d"), (0, -2, 1, math.nan))
    assert [label for label, _ in err.value.parts] == ["f1:a", "f1:b", "f1:d"]


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError) as err:
        validate_tree(parse_sbp("(TA|CL)"), ("TA", "TA", "CL"))
    assert err.value.labels == ("TA",)


def test_single_part_rejected():
    with pytest.raises(CodaError, match=r"^need at least 2 parts, got 1$"):
        validate_tree(parse_sbp("(TA|CL)"), ("TA",))


def test_length_mismatch_rejected():
    # a lone composition is a (1, D) row, not a flat vector
    with pytest.raises(LengthMismatchError, match=r"^size mismatch: expected 3, got \(3,\)$"):
        ilr_matrix(np.array([1.0, 2.0, 3.0]), LIABILITIES, parse_sbp("(TA|(NCL|CL))"))


def test_empty_label_rejected():
    with pytest.raises(CodaError, match=r"^part labels must be non-empty$"):
        _one_firm(("a", ""), (1.0, 2.0))


# ---------------------------------------------------------------------------
# balances: the columns of ilr_matrix


def test_balance_zero_on_equal_parts(liability_tree):
    assert ilr_matrix(np.ones((1, 3)), LIABILITIES, liability_tree)[0, 0] == 0.0


def test_balance_matches_closed_form(liability_tree):
    # independent route: sqrt(2/3) * ln(4 / sqrt(2*1))
    expected = math.sqrt(2.0 / 3.0) * math.log(4.0 / math.sqrt(2.0))
    got = ilr_matrix([[4, 2, 1]], LIABILITIES, liability_tree)[0, 0]
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.8489284545103327, rel=1e-12)


def test_balance_two_parts_frozen_value():
    got = ilr_matrix([[0.5, 4.0]], ("Mg1", "Mg2"), parse_sbp("(Mg2|Mg1)"))[0, 0]
    assert got == pytest.approx(math.sqrt(0.5) * math.log(8.0), rel=1e-14)
    assert got == pytest.approx(1.4703872152028208, rel=1e-12)


def test_balance_permutation_flips_sign_exactly():
    # swapping numerator and denominator must negate the value bit-for-bit
    labels = tuple(f"p{i}" for i in range(6))
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = random_composition(rng, labels, 20)
        k = int(rng.integers(1, len(labels)))
        perm = list(labels)
        rng.shuffle(perm)
        num, den = random_tree_text(rng, perm[:k]), random_tree_text(rng, perm[k:])
        y = ilr_matrix(X, labels, parse_sbp(f"({num}|{den})"))[:, 0]
        yp = ilr_matrix(X, labels, parse_sbp(f"({den}|{num})"))[:, 0]
        assert np.array_equal(yp, -y)


def test_balance_input_validation():
    # the checks every ratio spec's groups pass
    with pytest.raises(UnknownLabelError):
        check_known(("a", "z"), ("a", "b", "c"))
    with pytest.raises(DuplicateLabelError) as err:
        RatioSpec("r", ("a", "b"), ("b", "c"))
    assert err.value.labels == ("b",)
    # dropping the repeat would silently compute the balance of (a | b)
    with pytest.raises(DuplicateLabelError) as err:
        RatioSpec("r", ("a", "a"), ("b",))
    assert err.value.labels == ("a",)
    with pytest.raises(CodaError, match=r"^numerator group is empty$"):
        RatioSpec("r", (), ("a",))


# ---------------------------------------------------------------------------
# pairwise log-ratio: the one coordinate of a two-part tree


def test_pairwise_logratio():
    X = np.array([[4.0, 2.0, 1.0]])
    got = ilr_matrix(X[:, :2], ("TA", "NCL"), parse_sbp("(TA|NCL)"))[0, 0]
    assert got == pytest.approx(math.sqrt(0.5) * math.log(2.0), rel=1e-14)
    assert got == pytest.approx(0.49012907173427367, rel=1e-12)

    assert ilr_matrix([[3, 3]], ("a", "b"), parse_sbp("(a|b)"))[0, 0] == 0.0


def test_pairwise_logratio_errors():
    with pytest.raises(DuplicateLabelError, match=r"^duplicate part label\(s\): a$"):
        parse_sbp("(a|a)")
    with pytest.raises(LabelMismatchError):
        ilr_matrix([[1, 2]], ("a", "b"), parse_sbp("(a|z)"))


def test_pairwise_equals_balance_linear_combination(liability_tree):
    # sqrt(1/2) * (sqrt(3/2)*y1 - sqrt(1/2)*y2) recovers the pairwise log-ratio
    X = random_composition(np.random.default_rng(0), LIABILITIES, 100)
    y1, y2 = ilr_matrix(X, LIABILITIES, liability_tree).T
    combo = math.sqrt(0.5) * (math.sqrt(1.5) * y1 - math.sqrt(0.5) * y2)
    pairwise = ilr_matrix(X[:, :2], LIABILITIES[:2], parse_sbp("(TA|NCL)"))[:, 0]
    np.testing.assert_allclose(combo, pairwise, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# contrast matrix and transforms


def test_contrast_matrix_entries(liability_tree):
    V = contrast_matrix(liability_tree)
    assert liability_tree.leaf_labels == ("TA", "NCL", "CL")
    assert not V.flags.writeable
    expected = np.array(
        [
            [math.sqrt(2.0 / 3.0), -math.sqrt(1.0 / 6.0), -math.sqrt(1.0 / 6.0)],
            [0.0, math.sqrt(0.5), -math.sqrt(0.5)],
        ]
    )
    np.testing.assert_allclose(V, expected, rtol=0, atol=1e-15)


def test_contrast_matrix_two_parts():
    V = contrast_matrix(parse_sbp("(A|B)"))
    np.testing.assert_allclose(
        V, [[math.sqrt(0.5), -math.sqrt(0.5)]], rtol=0, atol=1e-15
    )


def test_contrast_matrix_random_trees_orthonormal():
    labels = [f"p{i}" for i in range(8)]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, len(labels) + 1))
        tree = parse_sbp(random_tree_text(rng, labels[:size]))
        V = contrast_matrix(tree)
        np.testing.assert_allclose(V @ V.T, np.eye(size - 1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(V.sum(axis=1), 0.0, rtol=0, atol=1e-12)


def test_clr_components():
    # the centred log-ratios come back from the ilr coordinates as ilr @ V
    tree = parse_sbp("(a|(b|c))")
    V = contrast_matrix(tree)
    Y = ilr_matrix([[1, 1, 1], [math.e, 1, 1]], ("a", "b", "c"), tree)
    np.testing.assert_allclose(
        Y @ V, [[0.0, 0.0, 0.0], [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0]], rtol=0, atol=1e-14
    )


def test_clr_sums_to_zero_random():
    labels = tuple(f"p{i}" for i in range(7))
    tree = parse_sbp(random_tree_text(np.random.default_rng(0), labels))
    for seed in range(100):
        X = random_composition(np.random.default_rng(seed), labels)
        clr = ilr_matrix(X, labels, tree) @ contrast_matrix(tree)
        assert abs(clr.sum()) < 1e-12


def test_ilr_equals_contrast_times_clr(liability_tree):
    # independent route: the contrast matrix times clr, a matrix product
    # that the forward transform does not take
    logs = np.log([4.0, 2.0, 1.0])
    via_matrix = contrast_matrix(liability_tree) @ (logs - logs.mean())
    via_balances = ilr_matrix([[4, 2, 1]], LIABILITIES, liability_tree)[0]
    np.testing.assert_allclose(via_balances, via_matrix, rtol=0, atol=1e-12)


def test_ilr_matrix_route_agrees_with_balance_route():
    # one formula: each row of a many-row ilr_matrix call equals the same
    # row computed alone, bit for bit, whatever the column order
    labels = [f"p{i:02d}" for i in range(24)]
    for seed in range(30):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, len(labels) + 1))
        tree = parse_sbp(random_tree_text(rng, labels[:size]))
        # columns in label order, not the tree's leaf order
        X = random_composition(rng, labels[:size], 33)
        Y = ilr_matrix(X, labels[:size], tree)
        assert Y.shape == (33, size - 1)
        order = rng.permutation(size)
        shuffled = [labels[j] for j in order]
        assert np.array_equal(ilr_matrix(X[:, order], shuffled, tree), Y)
        for i in range(len(X)):
            assert ilr_matrix(X[i : i + 1], labels[:size], tree)[0].tolist() == Y[i].tolist()


def test_ilr_matrix_sums_each_group_left_to_right_from_zero():
    # README Determinism: each mean adds its log columns one at a time in the
    # tree's leaf order, starting from 0; the reference holds each group as
    # its label tuple and the data columns in another order than the leaves
    labels = [f"p{i:02d}" for i in range(48)]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, len(labels) + 1))
        nested = random_tree(rng, labels[:size])
        columns = [labels[j] for j in rng.permutation(size)]
        X = random_composition(rng, columns, 17)
        logs = dict(zip(columns, np.log(X).T))  # one contiguous log call, as ilr_matrix makes
        expected = np.empty((len(X), size - 1))
        for k, (num, den) in enumerate(reference_splits(nested)):
            r, s = len(num), len(den)
            num_sum = sum(logs[label] for label in num)
            den_sum = sum(logs[label] for label in den)
            expected[:, k] = math.sqrt(r * s / (r + s)) * (num_sum / r - den_sum / s)
        Y = ilr_matrix(X, columns, parse_sbp(tree_text(nested)))
        assert Y.tobytes() == expected.tobytes()


def test_ilr_matrix_checks_labels_and_shape(liability_tree):
    X = np.ones((2, 3))
    with pytest.raises(LabelMismatchError):
        ilr_matrix(X, ("TA", "NCL", "INV"), liability_tree)
    with pytest.raises(LengthMismatchError):
        ilr_matrix(X[:, :2], ("TA", "NCL", "CL"), liability_tree)
    # the label sets match, but the first "A" column would be silently ignored
    with pytest.raises(DuplicateLabelError, match="^duplicate part label\\(s\\): A$"):
        ilr_matrix([[1.0, 5.0, 2.0]], ("A", "A", "B"), parse_sbp("(A|B)"))


def test_ilr_matrix_worked_example(liability_tree):
    y = ilr_matrix([[4, 2, 1]], LIABILITIES, liability_tree)[0]
    assert liability_tree.coordinate_names == ("y1", "y2")
    assert y[0] == pytest.approx(0.8489284545103327, rel=1e-12)
    assert y[1] == pytest.approx(math.sqrt(0.5) * math.log(2.0), rel=1e-14)


def test_ilr_matrix_neutral(liability_tree):
    # equal parts at any scale sit at the origin
    X = np.array([[1.0, 1.0, 1.0], [7.5, 7.5, 7.5]])
    np.testing.assert_array_equal(ilr_matrix(X, LIABILITIES, liability_tree), 0.0)


def test_ilr_scale_invariance(liability_tree):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = random_composition(rng, LIABILITIES)
        lam = float(np.exp(rng.uniform(-6, 6)))
        np.testing.assert_allclose(
            ilr_matrix(lam * X, LIABILITIES, liability_tree),
            ilr_matrix(X, LIABILITIES, liability_tree),
            rtol=0,
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# inverse


def test_ilr_inverse_neutral(liability_tree):
    X = ilr_inverse(np.zeros((2, 2)), liability_tree)
    np.testing.assert_allclose(X, np.full((2, 3), 1 / 3), rtol=0, atol=1e-15)


def test_ilr_inverse_round_trip_closes(liability_tree):
    back = ilr_inverse(ilr_matrix([[4, 2, 1]], LIABILITIES, liability_tree), liability_tree)
    assert liability_tree.leaf_labels == LIABILITIES
    np.testing.assert_allclose(back, [[4 / 7, 2 / 7, 1 / 7]], rtol=0, atol=1e-12)
    # positive parts at the ends of the float range: exp of the clr would overflow
    extreme = ilr_matrix([[1e308, 1e-308, 1e-308]], LIABILITIES, liability_tree)
    assert ilr_inverse(extreme, liability_tree).tolist() == [[1.0, 0.0, 0.0]]


def test_ilr_inverse_single_balance():
    X = ilr_inverse([[math.sqrt(0.5) * math.log(2.0)]], parse_sbp("(A|B)"))
    np.testing.assert_allclose(X, [[2 / 3, 1 / 3]], rtol=0, atol=1e-12)


def test_ilr_inverse_round_trip_in_another_column_order():
    # the data's columns need not follow the tree's leaves; the inverse's do
    labels = ("CL", "TA", "NCL")
    tree = parse_sbp("(TA|(NCL|CL))")
    X = random_composition(np.random.default_rng(5), labels, 50)
    back = ilr_inverse(ilr_matrix(X, labels, tree), tree)
    closed = X / X.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(back, closed[:, [1, 2, 0]], rtol=1e-12, atol=0)


def test_round_trip_from_coordinates_random():
    labels = [f"p{i}" for i in range(7)]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, len(labels) + 1))
        tree = parse_sbp(random_tree_text(rng, labels[:size]))
        Y = rng.uniform(-20.0, 20.0, size=(3, size - 1))
        X = ilr_inverse(Y, tree)
        np.testing.assert_allclose(X.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            ilr_matrix(X, tree.leaf_labels, tree), Y, rtol=0, atol=1e-12
        )


def test_ilr_inverse_rejects_wrong_length(liability_tree):
    with pytest.raises(LengthMismatchError, match=r"^size mismatch: expected 2, got \(1, 1\)$"):
        ilr_inverse([[1.0]], liability_tree)
    with pytest.raises(LengthMismatchError, match=r"^size mismatch: expected 2, got \(2, 3\)$"):
        ilr_inverse(np.zeros((2, 3)), liability_tree)


def test_ilr_inverse_rejects_a_flat_vector(liability_tree):
    # one firm's coordinates are a (1, D-1) row
    with pytest.raises(LengthMismatchError, match=r"^size mismatch: expected 2, got \(2,\)$"):
        ilr_inverse((0.0, 0.0), liability_tree)


# ---------------------------------------------------------------------------
# distance: the norm of an ilr difference


def test_distance_zero_on_self(liability_tree):
    X = np.array([[4.0, 2.0, 1.0]])
    assert _distance(X, X, LIABILITIES, liability_tree).tolist() == [0.0]


def test_distance_scale_invariance(liability_tree):
    X = np.array([[4.0, 2.0, 1.0]])
    assert _distance(X, 37.5 * X, LIABILITIES, liability_tree)[0] < 1e-12


def test_distance_two_part_closed_form():
    d = _distance(np.array([[1.0, 1.0]]), np.array([[math.e, 1.0]]), ("A", "B"), parse_sbp("(A|B)"))
    assert d[0] == pytest.approx(math.sqrt(0.5), rel=1e-14)


def test_distance_is_a_metric(liability_tree):
    X, Z, W = (random_composition(np.random.default_rng(seed), LIABILITIES, 50) for seed in range(3))
    dxz = _distance(X, Z, LIABILITIES, liability_tree)
    assert (dxz >= 0.0).all()
    np.testing.assert_allclose(dxz, _distance(Z, X, LIABILITIES, liability_tree), rtol=1e-12)
    dxw = _distance(X, W, LIABILITIES, liability_tree)
    dwz = _distance(W, Z, LIABILITIES, liability_tree)
    assert (dxz <= dxw + dwz + 1e-12).all()


def test_distance_basis_invariance():
    # any valid tree over the same parts induces the same distance
    labels = [f"p{i}" for i in range(6)]
    for seed in range(50):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, len(labels) + 1))
        active = labels[:size]
        t1 = parse_sbp(random_tree_text(rng, active))
        t2 = parse_sbp(random_tree_text(rng, active))
        X = random_composition(rng, active, 2)
        d1 = _distance(X[:1], X[1:], active, t1)
        d2 = _distance(X[:1], X[1:], active, t2)
        assert abs(d1[0] - d2[0]) < 1e-10
