import coda_ratios

# the per-composition API, replaced by the (n, D) array functions
REMOVED = (
    "BalanceVector",
    "Composition",
    "aitchison_distance",
    "balance",
    "clr_transform",
    "eval_ratio",
    "ilr_transform",
)


def test_every_public_name_resolves():
    assert [name for name in coda_ratios.__all__ if not hasattr(coda_ratios, name)] == []


def test_removed_names_are_not_exported():
    assert not set(REMOVED) & set(coda_ratios.__all__)
    assert not [name for name in REMOVED if hasattr(coda_ratios, name)]
    assert not hasattr(coda_ratios.PartitionTree, "fingerprint")
