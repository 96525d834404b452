"""Block identity pins: every shipped matrix's structural digest.

A block's descriptor names its protocol by a builder identity string, and
that string enters :meth:`ScenarioMatrix.digest`, every result-cache key
and every run-digest preamble.  These pins hold the identity of each
shipped matrix byte for byte, so a refactor of how blocks are named or
dispatched cannot move a committed digest unnoticed.
"""

from __future__ import annotations

import pytest

from benchmarks.parity_audit import BUILD_GATE_GRID
from repro.campaign.ablation.grid import ablation_cell, ablation_matrix
from repro.campaign.families import default_matrix
from repro.checker import properties as props
from repro.checker.explorer import ModelChecker
from repro.checker.strategies import halt_strategies
from repro.core.hedged_broker import HedgedBrokerDeal


def _builder_ids(matrix) -> set[str]:
    """The builder identity field of every block descriptor."""
    return {block.describe().split("|")[2] for block in matrix.blocks}


MATRICES = {
    "default": (
        default_matrix,
        "f9e4864dda40675714df6e94a9f83d1b939124f5102b492a8c8f42abf2b49f85",
        {
            "add_two_party.<locals>.<lambda>",
            "add_multi_party.<locals>.<lambda>",
            "add_broker.<locals>.<lambda>",
            "_add_auction_blocks.<locals>.<lambda>",
            "add_bootstrap.<locals>.<lambda>",
        },
    ),
    "ablation": (
        ablation_matrix,
        "464fc732bb065f416a847e8ed37be244e8b39fb91bab9481fa54caf26a24af4f",
        {
            "_two_party_cell.<locals>.<lambda>",
            "_multi_party_probe.<locals>.<lambda>",
            "_broker_cell.<locals>.<lambda>",
            "_auction_cell.<locals>.<lambda>",
        },
    ),
    "ablation-coalitions-all-stages": (
        lambda: ablation_matrix(coalitions=True, stages=("all",)),
        "4842a979b65100fcfa3bb50b92a17f5e78448bc0a58ce531bf9c0532287ac43c",
        {
            "_two_party_cell.<locals>.<lambda>",
            "_multi_party_probe.<locals>.<lambda>",
            "_broker_cell.<locals>.<lambda>",
            "_broker_coalition_cell.<locals>.<lambda>",
            "_auction_cell.<locals>.<lambda>",
        },
    ),
    "ablation-graph-families": (
        lambda: ablation_matrix(
            families=("ring:4", "complete:4", "figure3"), coalitions=True
        ),
        "144cac43d2444b0f7f8924c68669d3908d34c435383acf5738847265b13686b8",
        {"_graph_cell.<locals>.<lambda>"},
    ),
    "refine-smoke": (
        lambda: ablation_matrix(**BUILD_GATE_GRID),
        "11da338aed145880b0a870073ab234399dc2ad39b87c5ad21de6f2860f71d66d",
        {
            "_two_party_cell.<locals>.<lambda>",
            "_multi_party_probe.<locals>.<lambda>",
            "_broker_cell.<locals>.<lambda>",
            "_broker_coalition_cell.<locals>.<lambda>",
            "_auction_cell.<locals>.<lambda>",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_shipped_matrix_digest_is_pinned(name):
    make, digest, builder_ids = MATRICES[name]
    matrix = make()
    assert _builder_ids(matrix) == builder_ids
    assert matrix.digest() == digest


#: one ablation cell per (family, coalition) context, plus a graph family.
CELLS = {
    ("two-party", ""): (
        "_two_party_cell.<locals>.<lambda>",
        "8ecc0ef5c25359eccdb64e0f37edaabccd1b0801fc19b45a2bf4772b192c8c0a",
    ),
    ("multi-party", ""): (
        "_multi_party_probe.<locals>.<lambda>",
        "bb6dc8aef065ee02e111988ce221b8135443d97cbaf8227def8c30292fec491c",
    ),
    ("multi-party", "P1+P2"): (
        "_multi_party_probe.<locals>.<lambda>",
        "eeeb9361d8313fdc70f4c9a2bf4ede9a5852b0a3b3b98f6a732fbb9205128a8a",
    ),
    ("broker", ""): (
        "_broker_cell.<locals>.<lambda>",
        "7b23045dc5a8a8ca608f9faf8de514006feb824c90b2fbfe14f8a11a06a3dc19",
    ),
    ("broker", "seller+buyer"): (
        "_broker_coalition_cell.<locals>.<lambda>",
        "ca2d423b918f0293d87fa4636940e314af381d4341baffdc85006e1f44f4e65e",
    ),
    ("auction", ""): (
        "_auction_cell.<locals>.<lambda>",
        "2bb5cf64ac5517ba4f6d242b583c93d79e8eef9201aeacc8605628c9f8710f4a",
    ),
    ("ring:5", ""): (
        "_graph_cell.<locals>.<lambda>",
        "11f6d0bc517113925820ecbcfd6944afd85217d0df167cb49fcc3f6d450b1eb6",
    ),
}


@pytest.mark.parametrize("family,coalition", sorted(CELLS))
def test_ablation_cell_digest_is_pinned(family, coalition):
    builder_id, digest = CELLS[(family, coalition)]
    matrix = ablation_cell(family, 0.03, 0.045, "staked", coalition=coalition)
    assert _builder_ids(matrix) == {builder_id}
    assert matrix.digest() == digest


def test_model_checker_block_is_named_by_its_builder():
    instance = HedgedBrokerDeal().build()
    checker = ModelChecker(
        builder=HedgedBrokerDeal().build,
        properties=[props.no_stuck_escrow, props.broker_bounds],
        strategies={
            party: halt_strategies(instance.horizon) for party in instance.actors
        },
    )
    matrix = checker.matrix()
    assert _builder_ids(matrix) == {"HedgedBrokerDeal.build"}
    assert matrix.digest() == (
        "49e176612e8536d4ea87d328a1ca004f36fa1ad5519c47bfd17e35d5b6c8844c"
    )
