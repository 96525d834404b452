"""Tests for the trace renderers and the command-line interface."""

import pytest

from repro.cli import CHECKS, PROTOCOLS, build_parser, main
from repro.core.hedged_two_party import HedgedTwoPartySwap
from repro.parties.strategies import halt_at
from repro.protocols.instance import execute
from repro.sim.trace import render_lanes, render_timeline


@pytest.fixture(scope="module")
def compliant_result():
    instance = HedgedTwoPartySwap().build()
    return execute(instance)


# ----------------------------------------------------------------------
# trace renderers
# ----------------------------------------------------------------------
def test_lanes_have_one_column_per_chain(compliant_result):
    text = render_lanes(compliant_result)
    header = text.splitlines()[0]
    assert "apricot" in header and "banana" in header


def test_lanes_show_figure1_sequence(compliant_result):
    text = render_lanes(compliant_result)
    lines = text.splitlines()
    order = [
        next(i for i, l in enumerate(lines) if "premium 3 in" in l),
        next(i for i, l in enumerate(lines) if "premium 1 in" in l),
        next(i for i, l in enumerate(lines) if "escrow 100 (Alice)" in l),
        next(i for i, l in enumerate(lines) if "escrow 100 (Bob)" in l),
        next(i for i, l in enumerate(lines) if "redeem -> Alice" in l),
        next(i for i, l in enumerate(lines) if "redeem -> Bob" in l),
    ]
    assert order == sorted(order)  # exactly the Figure 1 ordering


def test_lanes_mark_awarded_premiums():
    instance = HedgedTwoPartySwap().build()
    result = execute(instance, {"Bob": lambda a: halt_at(a, 3)})
    assert "AWARDED" in render_lanes(result)


def test_timeline_shows_height_deltas(compliant_result):
    text = render_timeline(compliant_result)
    assert "+1Δ" in text
    assert text.splitlines()[0].startswith("h=  1")


def test_deployed_events_hidden(compliant_result):
    assert "deployed" not in render_lanes(compliant_result)
    assert "deployed" not in render_timeline(compliant_result)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_two_party(capsys):
    main(["two-party", "--deviate", "Bob@3"])
    out = capsys.readouterr().out
    assert "AWARDED to Alice" in out
    assert "swapped=False" in out


def test_cli_base_two_party(capsys):
    main(["two-party", "--base"])
    out = capsys.readouterr().out
    assert "swapped=True" in out


def test_cli_multi_party_ring(capsys):
    main(["multi-party", "--graph", "ring:3", "--timeline"])
    out = capsys.readouterr().out
    assert "'redeemed'" in out


def test_cli_broker(capsys):
    main(["broker"])
    out = capsys.readouterr().out
    assert "ticket_state='redeemed'" in out and "coin_state='redeemed'" in out


def test_cli_auction_strategies(capsys):
    main(["auction", "--strategy", "publish-loser"])
    out = capsys.readouterr().out
    assert "refunded" in out


def test_cli_sealed_auction(capsys):
    main(["auction", "--sealed"])
    out = capsys.readouterr().out
    assert "completed" in out


def test_cli_bootstrap(capsys):
    main(["bootstrap", "--value", "10000", "--rounds", "2"])
    out = capsys.readouterr().out
    assert "swapped=True" in out


def test_cli_check_two_party(capsys):
    main(["check", "two-party"])
    out = capsys.readouterr().out
    assert "OK" in out


def test_cli_bad_deviation_spec():
    with pytest.raises(SystemExit):
        main(["two-party", "--deviate", "nonsense"])


def test_cli_bad_graph():
    with pytest.raises(SystemExit):
        main(["multi-party", "--graph", "torus:9"])
    # malformed sizes (and a bare kind with no N) end in the same clean
    # message on both the protocol run and the model checker, never a
    # raw ValueError traceback
    for argv in (
        ["multi-party", "--graph", "ring:x"],
        ["check", "multi-party", "--graph", "ring:x"],
        ["multi-party", "--graph", "ring"],
    ):
        with pytest.raises(SystemExit, match="unknown graph"):
            main(argv)


@pytest.mark.parametrize("command", sorted(PROTOCOLS))
def test_cli_every_protocol_subcommand_runs(command, capsys):
    main([command])
    out = capsys.readouterr().out
    assert "outcome:" in out


@pytest.mark.parametrize("protocol", sorted(CHECKS))
def test_cli_check_every_protocol(protocol, capsys):
    main(["check", protocol])
    out = capsys.readouterr().out
    assert ": OK" in out


def test_cli_unknown_deviator_errors():
    with pytest.raises(SystemExit):
        main(["two-party", "--deviate", "Mallory@1"])


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["multi-party", "--graph", "complete:3"])
    assert args.graph == "complete:3"
