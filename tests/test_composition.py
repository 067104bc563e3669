import math

import numpy as np
import pytest

from coda_ratios import (
    Composition,
    aitchison_distance,
    balance,
    clr_transform,
    contrast_matrix,
    ilr_inverse,
    ilr_matrix,
    ilr_transform,
    pairwise_logratio,
    parse_sbp,
    validate_composition,
)
from coda_ratios.errors import (
    CodaError,
    DuplicateLabelError,
    EmptyGroupError,
    LabelMismatchError,
    LengthMismatchError,
    NonPositivePartError,
    OverlappingGroupsError,
    TooFewPartsError,
    UnknownLabelError,
)

from conftest import random_composition, random_tree_text


# ---------------------------------------------------------------------------
# construction and validation


def test_validate_composition_accepts_positive_parts():
    x = validate_composition([("TA", 8), ("NCL", 2), ("CL", 2)])
    assert x.dimension == 3
    assert x.labels == ("TA", "NCL", "CL")
    assert x.value("NCL") == 2.0


def test_validate_composition_rejects_zero_and_negative():
    with pytest.raises(NonPositivePartError) as err:
        validate_composition([("TA", 8), ("NCL", 0), ("CL", 2)])
    assert err.value.parts == (("NCL", 0.0),)

    with pytest.raises(NonPositivePartError) as err:
        validate_composition([("TA", 8), ("NCL", -1), ("CL", 2)])
    assert err.value.parts == (("NCL", -1.0),)


def test_validate_composition_lists_every_offender():
    with pytest.raises(NonPositivePartError) as err:
        validate_composition([("a", 0), ("b", -2), ("c", 1), ("d", math.nan)])
    assert [label for label, _ in err.value.parts] == ["a", "b", "d"]


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError) as err:
        validate_composition([("TA", 1), ("TA", 2), ("CL", 3)])
    assert err.value.labels == ("TA",)


def test_single_part_rejected():
    with pytest.raises(TooFewPartsError):
        validate_composition([("TA", 1)])


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        Composition(labels=("a", "b", "c"), values=(1.0, 2.0))


def test_empty_label_rejected():
    with pytest.raises(CodaError):
        Composition(labels=("a", ""), values=(1.0, 2.0))


def test_as_array_follows_requested_order():
    x = validate_composition([("TA", 8), ("NCL", 2), ("CL", 4)])
    np.testing.assert_array_equal(x.as_array(("CL", "TA", "NCL")), [4.0, 8.0, 2.0])
    with pytest.raises(UnknownLabelError):
        x.as_array(("CL", "INV", "NCL"))


# ---------------------------------------------------------------------------
# balances


def test_balance_zero_on_equal_parts():
    x = validate_composition([("TA", 1), ("NCL", 1), ("CL", 1)])
    assert balance(x, ("TA",), ("NCL", "CL")) == 0.0


def test_balance_matches_closed_form():
    # independent route: sqrt(2/3) * ln(4 / sqrt(2*1))
    x = validate_composition([("TA", 4), ("NCL", 2), ("CL", 1)])
    expected = math.sqrt(2.0 / 3.0) * math.log(4.0 / math.sqrt(2.0))
    got = balance(x, ("TA",), ("NCL", "CL"))
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.8489284545103327, rel=1e-12)


def test_balance_two_parts_frozen_value():
    x = validate_composition([("Mg1", 0.5), ("Mg2", 4.0)])
    got = balance(x, ("Mg2",), ("Mg1",))
    assert got == pytest.approx(math.sqrt(0.5) * math.log(8.0), rel=1e-14)
    assert got == pytest.approx(1.4703872152028208, rel=1e-12)


def test_balance_permutation_flips_sign_exactly():
    # swapping numerator and denominator must negate the value bit-for-bit
    labels = tuple(f"p{i}" for i in range(6))
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = random_composition(rng, labels)
        k = int(rng.integers(1, len(labels)))
        perm = list(labels)
        rng.shuffle(perm)
        num, den = tuple(perm[:k]), tuple(perm[k:])
        assert balance(x, den, num) == -balance(x, num, den)


def test_balance_input_validation():
    x = validate_composition([("a", 1), ("b", 2), ("c", 3)])
    with pytest.raises(UnknownLabelError):
        balance(x, ("a",), ("z",))
    with pytest.raises(OverlappingGroupsError):
        balance(x, ("a", "b"), ("b", "c"))
    with pytest.raises(EmptyGroupError):
        balance(x, (), ("a",))


# ---------------------------------------------------------------------------
# pairwise log-ratio


def test_pairwise_logratio():
    x = validate_composition([("TA", 4), ("NCL", 2), ("CL", 1)])
    got = pairwise_logratio(x, "TA", "NCL")
    assert got == pytest.approx(math.sqrt(0.5) * math.log(2.0), rel=1e-14)
    assert got == pytest.approx(0.49012907173427367, rel=1e-12)

    same = validate_composition([("a", 3), ("b", 3)])
    assert pairwise_logratio(same, "a", "b") == 0.0


def test_pairwise_logratio_errors():
    x = validate_composition([("a", 1), ("b", 2)])
    with pytest.raises(CodaError, match="needs two distinct labels, got 'a' twice"):
        pairwise_logratio(x, "a", "a")
    with pytest.raises(UnknownLabelError):
        pairwise_logratio(x, "a", "z")


def test_pairwise_equals_balance_linear_combination(liability_tree):
    # sqrt(1/2) * (sqrt(3/2)*y1 - sqrt(1/2)*y2) recovers the pairwise log-ratio
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = random_composition(rng, ("TA", "NCL", "CL"))
        y = ilr_transform(x, liability_tree)
        combo = math.sqrt(0.5) * (
            math.sqrt(1.5) * y.values[0] - math.sqrt(0.5) * y.values[1]
        )
        assert combo == pytest.approx(pairwise_logratio(x, "TA", "NCL"), abs=1e-12)


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
    x = validate_composition([("a", 1), ("b", 1), ("c", 1)])
    np.testing.assert_allclose(clr_transform(x), 0.0, rtol=0, atol=1e-15)

    x = validate_composition([("a", math.e), ("b", 1), ("c", 1)])
    np.testing.assert_allclose(
        clr_transform(x), [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0], rtol=0, atol=1e-14
    )


def test_clr_sums_to_zero_random():
    labels = tuple(f"p{i}" for i in range(7))
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = random_composition(rng, labels)
        assert abs(clr_transform(x).sum()) < 1e-12


def test_ilr_equals_contrast_times_clr(liability_tree):
    # the contrast-matrix formula written out by hand
    x = validate_composition([("TA", 4), ("NCL", 2), ("CL", 1)])
    via_matrix = contrast_matrix(liability_tree) @ clr_transform(x)
    via_balances = ilr_transform(x, liability_tree).as_array()
    np.testing.assert_allclose(via_balances, via_matrix, rtol=0, atol=1e-12)


def test_ilr_matrix_route_agrees_with_balance_route():
    labels = [f"p{i}" for i in range(6)]
    for seed in range(50):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, len(labels) + 1))
        tree = parse_sbp(random_tree_text(rng, labels[:size]))
        comps = [random_composition(rng, tree.leaf_labels) for _ in range(4)]
        X = np.array([c.as_array(tree.leaf_labels) for c in comps])
        Y = ilr_matrix(X, tree)
        for i, c in enumerate(comps):
            # per-node balance() is the independent reference formula
            per_node = [
                balance(c, node.numerator_leaves(), node.denominator_leaves())
                for node in tree.nodes
            ]
            np.testing.assert_allclose(Y[i], per_node, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                ilr_transform(c, tree).as_array(), per_node, rtol=0, atol=1e-12
            )


def test_ilr_transform_worked_example(liability_tree):
    x = validate_composition([("TA", 4), ("NCL", 2), ("CL", 1)])
    y = ilr_transform(x, liability_tree)
    assert y.names == ("y1", "y2")
    assert y.values[0] == pytest.approx(0.8489284545103327, rel=1e-12)
    assert y.values[1] == pytest.approx(math.sqrt(0.5) * math.log(2.0), rel=1e-14)
    assert y.tree_fingerprint == liability_tree.fingerprint


def test_ilr_transform_neutral(liability_tree):
    x = validate_composition([("TA", 1), ("NCL", 1), ("CL", 1)])
    np.testing.assert_array_equal(ilr_transform(x, liability_tree).as_array(), 0.0)


def test_ilr_transform_label_mismatch(liability_tree):
    x = validate_composition([("TA", 1), ("NCL", 1), ("INV", 1)])
    with pytest.raises(LabelMismatchError):
        ilr_transform(x, liability_tree)


def test_ilr_scale_invariance(liability_tree):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = random_composition(rng, ("TA", "NCL", "CL"))
        lam = float(np.exp(rng.uniform(-6, 6)))
        scaled = Composition(
            labels=x.labels, values=tuple(lam * v for v in x.values)
        )
        np.testing.assert_allclose(
            ilr_transform(scaled, liability_tree).as_array(),
            ilr_transform(x, liability_tree).as_array(),
            rtol=0,
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# inverse


def test_ilr_inverse_neutral(liability_tree):
    x = ilr_inverse((0.0, 0.0), liability_tree)
    np.testing.assert_allclose(
        x.as_array(("TA", "NCL", "CL")), [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15
    )


def test_ilr_inverse_round_trip_closes(liability_tree):
    x = validate_composition([("TA", 4), ("NCL", 2), ("CL", 1)])
    back = ilr_inverse(ilr_transform(x, liability_tree), liability_tree)
    np.testing.assert_allclose(
        back.as_array(("TA", "NCL", "CL")), [4 / 7, 2 / 7, 1 / 7], rtol=0, atol=1e-12
    )


def test_ilr_inverse_single_balance():
    tree = parse_sbp("(A|B)")
    x = ilr_inverse((math.sqrt(0.5) * math.log(2.0),), tree)
    np.testing.assert_allclose(
        x.as_array(("A", "B")), [2 / 3, 1 / 3], rtol=0, atol=1e-12
    )


def test_round_trip_from_coordinates_random():
    labels = [f"p{i}" for i in range(7)]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, len(labels) + 1))
        tree = parse_sbp(random_tree_text(rng, labels[:size]))
        y = rng.uniform(-20.0, 20.0, size=size - 1)
        x = ilr_inverse(y, tree)
        assert abs(sum(x.values) - 1.0) < 1e-9
        np.testing.assert_allclose(
            ilr_transform(x, tree).as_array(), y, rtol=0, atol=1e-12
        )


def test_ilr_inverse_rejects_wrong_length(liability_tree):
    with pytest.raises(LengthMismatchError):
        ilr_inverse((1.0,), liability_tree)


def test_ilr_inverse_rejects_foreign_balance_vector(liability_tree):
    other = parse_sbp("((TA|NCL)|CL)")
    x = validate_composition([("TA", 4), ("NCL", 2), ("CL", 1)])
    y = ilr_transform(x, other)
    message = "^balance vector fingerprint 0x[0-9a-f]{16} does not match tree 0x[0-9a-f]{16}$"
    with pytest.raises(CodaError, match=message):
        ilr_inverse(y, liability_tree)


# ---------------------------------------------------------------------------
# distance


def test_distance_zero_on_self(liability_tree):
    x = validate_composition([("TA", 4), ("NCL", 2), ("CL", 1)])
    assert aitchison_distance(x, x, liability_tree) == 0.0


def test_distance_scale_invariance(liability_tree):
    x = validate_composition([("TA", 4), ("NCL", 2), ("CL", 1)])
    scaled = Composition(labels=x.labels, values=tuple(37.5 * v for v in x.values))
    assert aitchison_distance(x, scaled, liability_tree) < 1e-12


def test_distance_two_part_closed_form():
    tree = parse_sbp("(A|B)")
    x = validate_composition([("A", 1), ("B", 1)])
    z = validate_composition([("A", math.e), ("B", 1)])
    assert aitchison_distance(x, z, tree) == pytest.approx(
        math.sqrt(0.5), rel=1e-14
    )


def test_distance_is_a_metric(liability_tree):
    labels = ("TA", "NCL", "CL")
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = random_composition(rng, labels)
        z = random_composition(rng, labels)
        w = random_composition(rng, labels)
        dxz = aitchison_distance(x, z, liability_tree)
        assert dxz >= 0.0
        assert dxz == pytest.approx(
            aitchison_distance(z, x, liability_tree), rel=1e-12
        )
        assert dxz <= (
            aitchison_distance(x, w, liability_tree)
            + aitchison_distance(w, z, liability_tree)
            + 1e-12
        )


def test_distance_basis_invariance():
    # any valid tree over the same parts induces the same distance
    labels = [f"p{i}" for i in range(6)]
    for seed in range(50):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, len(labels) + 1))
        active = labels[:size]
        t1 = parse_sbp(random_tree_text(rng, active))
        t2 = parse_sbp(random_tree_text(rng, active))
        x = random_composition(rng, active)
        z = random_composition(rng, active)
        d1 = aitchison_distance(x, z, t1)
        d2 = aitchison_distance(x, z, t2)
        assert abs(d1 - d2) < 1e-10
