"""The paper's contribution: hedged cross-chain protocols.

- :mod:`repro.core.hedged_two_party` — the hedged two-party swap (§5.2),
- :mod:`repro.core.bootstrap` — premium bootstrapping (§6),
- :mod:`repro.core.premiums` — Equations 1 and 2 (redemption and escrow
  premiums on swap digraphs) plus the footnote-7 pruned variants,
- :mod:`repro.core.hedged_multi_party` — the hedged multi-party swap (§7.1),
- :mod:`repro.core.hedged_broker` — hedged brokered commerce (§8.2),
- :mod:`repro.core.hedged_auction` — the hedged auction (§9),
- :mod:`repro.core.outcomes` — payoff extraction and the hedged-property
  predicates used by tests and the model checker.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    "BootstrapSpec": "repro.core.bootstrap",
    "BootstrappedSwap": "repro.core.bootstrap",
    "initial_risk": "repro.core.bootstrap",
    "premium_ladder": "repro.core.bootstrap",
    "rounds_estimate": "repro.core.bootstrap",
    "rounds_needed": "repro.core.bootstrap",
    "AuctioneerStrategy": "repro.core.hedged_auction",
    "AuctionSpec": "repro.core.hedged_auction",
    "HedgedAuction": "repro.core.hedged_auction",
    "extract_auction_outcome": "repro.core.hedged_auction",
    "BrokerOutcome": "repro.core.hedged_broker",
    "HedgedBrokerDeal": "repro.core.hedged_broker",
    "broker_premium_tables": "repro.core.hedged_broker",
    "extract_broker_outcome": "repro.core.hedged_broker",
    "multi_round_trading_premiums": "repro.core.hedged_broker",
    "HedgedMultiPartySwap": "repro.core.hedged_multi_party",
    "MultiPartyOutcome": "repro.core.hedged_multi_party",
    "extract_multi_party_outcome": "repro.core.hedged_multi_party",
    "HedgedTwoPartySpec": "repro.core.hedged_two_party",
    "HedgedTwoPartySwap": "repro.core.hedged_two_party",
    "DealSpec": "repro.core.multi_round_deal",
    "MultiRoundDeal": "repro.core.multi_round_deal",
    "deal_premium_tables": "repro.core.multi_round_deal",
    "extract_deal_outcome": "repro.core.multi_round_deal",
    "TwoPartyOutcome": "repro.core.outcomes",
    "extract_two_party_outcome": "repro.core.outcomes",
    "escrow_premium_amounts": "repro.core.premiums",
    "leader_redemption_total": "repro.core.premiums",
    "redemption_premium_amount": "repro.core.premiums",
    "redemption_premium_flow": "repro.core.premiums",
    "redemption_premium_table": "repro.core.premiums",
})
