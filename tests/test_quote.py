"""The premium-quoting service: requests, quotes, schedules, the ladder.

The digest-invariance suite here is the quote layer's instance of the
repo-wide standing invariant: traced and untraced runs — and every tier
that answers the same question — produce byte-identical quote digests.
"""

import json
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.campaign.ablation.grid import closed_form_pi_star, parse_graph_family
from repro.campaign.ablation.bounds import DEFAULT_TOL, MIN_TOL
from repro.campaign.ablation.rowstore import (
    load_row,
    row_descriptor,
    row_key,
    store_row,
)
from repro.campaign.cache import ResultCache, shared_cache
from repro.campaign.experiment import Experiment, refine_spec
from repro.core.premiums import escrow_premium_amounts
from repro.graph.digraph import ring_graph
from repro.quote import (
    Quote,
    QuoteEngine,
    QuoteError,
    QuoteRequest,
    batch_cells,
    batch_digest,
    deposit_schedule,
    quote_batch,
    quote_for,
)


# ----------------------------------------------------------------------
# QuoteRequest: validation, identity, serialization
# ----------------------------------------------------------------------
class TestQuoteRequest:
    def test_exactly_one_shape(self):
        with pytest.raises(QuoteError):
            QuoteRequest()
        with pytest.raises(QuoteError):
            QuoteRequest(family="two-party", graph="ring:4")

    def test_unknown_family_and_graph(self):
        with pytest.raises(QuoteError):
            QuoteRequest(family="ring:4")  # graphs go through graph=
        with pytest.raises(QuoteError):
            QuoteRequest(graph="two-party")
        with pytest.raises(QuoteError):
            QuoteRequest(graph="ring:1")

    @pytest.mark.parametrize(
        "graph", ["ring:03", "complete:04", "ring:\u0663", "ring:\u00b3", "ring:+3"]
    )
    def test_non_canonical_graph_names_are_unknown(self, graph):
        # Only ASCII decimal without a leading zero names a cell: each
        # spelling of ring:3 would otherwise be a cell of its own.
        assert parse_graph_family(graph) is None
        with pytest.raises(QuoteError, match="unknown graph"):
            QuoteRequest(graph=graph)
        with pytest.raises(QuoteError, match="unknown graph"):
            QuoteRequest.from_json(json.dumps({"graph": graph}))
        with pytest.raises(QuoteError, match="unknown family"):
            QuoteRequest(family=graph)

    def test_canonical_graph_digests_are_pinned(self):
        assert QuoteRequest(graph="ring:3").digest() == (
            "84625793e878fe81d64caeef23635cbe407b5db6e3e138bcea76e401155a3402"
        )
        assert QuoteRequest(graph="complete:4").digest() == (
            "acd07d79a239b11997de33fc682d55e6d55dd3b69371617bd3306be13d1ab944"
        )

    @pytest.mark.parametrize(
        "stage", ["round:03", "round:00", "round:²", "round:٣", "round:+3",
                  "round:", "round:3:1"]
    )
    def test_non_canonical_round_stages_are_refused(self, stage):
        # Same rule as graph names: each spelling of round:3 would
        # otherwise be a request (and a digest) of its own.
        with pytest.raises(QuoteError, match="concrete stage"):
            QuoteRequest(family="two-party", stage=stage)
        with pytest.raises(QuoteError, match="concrete stage"):
            QuoteRequest.from_json(
                json.dumps({"family": "two-party", "stage": stage})
            )

    @pytest.mark.parametrize(
        "fields",
        [{"family": "two-party", "stage": 3}, {"graph": 4},
         {"family": "multi-party", "coalition": ["P1", "P2"]}],
    )
    def test_non_string_text_fields_are_quote_errors(self, fields):
        with pytest.raises(QuoteError, match="must be a string"):
            QuoteRequest.from_json(json.dumps(fields))

    def test_canonical_round_stage_digests_are_pinned(self):
        assert QuoteRequest(family="two-party", stage="round:3").digest() == (
            "5db48b7c8b1cdce6c1498d6fdd820c987b7862f1bffb8cc02066e4a6a392a037"
        )
        assert QuoteRequest(family="two-party", stage="round:0").digest() == (
            "e849969318a29cef855f03be83b02f2c38d8da93b523627feaf0067c45982191"
        )

    def test_coalition_rules(self):
        QuoteRequest(family="multi-party", coalition="P1+P2")
        with pytest.raises(QuoteError):
            QuoteRequest(graph="ring:4", coalition="P1+P2")
        with pytest.raises(QuoteError):
            QuoteRequest(family="two-party", coalition="P1+P2")

    def test_stage_and_assumption_bounds(self):
        QuoteRequest(family="two-party", stage="round:3")
        with pytest.raises(QuoteError):
            QuoteRequest(family="two-party", stage="all")
        with pytest.raises(QuoteError):
            QuoteRequest(family="two-party", stage="mid-flight")
        with pytest.raises(QuoteError):
            QuoteRequest(family="two-party", shock=0.0)
        with pytest.raises(QuoteError):
            QuoteRequest(family="two-party", shock=1.0)
        with pytest.raises(QuoteError):
            QuoteRequest(family="two-party", tol=0.0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(QuoteError):
                QuoteRequest(family="two-party", tol=tol)

    def test_sub_floor_tol_is_refused_at_construction(self):
        # 32 halvings of [0, 1] never reach 1e-12: refuse the request
        # instead of burning every bisection iteration first.
        with pytest.raises(QuoteError, match="at least"):
            QuoteRequest(graph="ring:5", tol=1e-12)
        with pytest.raises(QuoteError, match="at least"):
            QuoteRequest(family="auction", tol=MIN_TOL / 2)
        QuoteRequest(graph="ring:5", tol=MIN_TOL)

    @pytest.mark.parametrize(
        "shape",
        [{"family": f} for f in ("two-party", "multi-party", "broker", "auction")]
        + [{"graph": g} for g in ("ring:5", "complete:4", "figure3")],
    )
    def test_default_tol_clears_the_floor(self, shape):
        # The auction's premium quantum (1/60) is coarser than the default
        # tol (1/64); the floor must not be derived from it.
        assert QuoteRequest(**shape).tol == DEFAULT_TOL > MIN_TOL

    def test_non_finite_tol_is_a_cli_error(self, capsys):
        from repro.cli import main as cli_main

        for tol in ("nan", "inf"):
            with pytest.raises(SystemExit, match="^error: tol must be"):
                cli_main(["quote", "--family", "two-party", "--tol", tol])
        assert capsys.readouterr().out == ""  # no work started

    def test_non_object_batch_item_is_a_cli_error(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(QuoteError, match="JSON object"):
            QuoteRequest.from_json("1")
        batch = tmp_path / "requests.json"
        batch.write_text("[1]")
        with pytest.raises(SystemExit, match="^error: a quote request"):
            cli_main(["quote-batch", str(batch)])
        assert capsys.readouterr().out == ""

    def test_ring3_normalizes_to_multi_party(self):
        assert QuoteRequest(graph="ring:3").cell_family == "multi-party"
        assert QuoteRequest(graph="ring:4").cell_family == "ring:4"
        assert QuoteRequest(family="broker").cell_family == "broker"

    def test_digest_covers_every_field(self):
        base = QuoteRequest(family="two-party")
        variants = [
            QuoteRequest(family="multi-party"),
            QuoteRequest(family="two-party", shock=0.06),
            QuoteRequest(family="two-party", stage="pre-stake"),
            QuoteRequest(family="two-party", tol=0.03125),
            QuoteRequest(family="two-party", seed=7),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == 1 + len(variants)
        assert base.digest() == QuoteRequest(family="two-party").digest()

    @pytest.mark.parametrize("seed", [True, 1.0, "x", None])
    def test_non_integer_seed_is_refused(self, seed):
        with pytest.raises(QuoteError, match="seed must be an integer"):
            QuoteRequest(family="two-party", seed=seed)
        with pytest.raises(QuoteError, match="seed must be an integer"):
            QuoteRequest.from_json(
                json.dumps({"family": "two-party", "seed": seed})
            )

    @pytest.mark.parametrize("field", ["shock", "tol"])
    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_non_real_shock_and_tol_are_refused(self, field, value):
        with pytest.raises(QuoteError, match=f"{field} must be a real number"):
            QuoteRequest(family="two-party", **{field: value})
        with pytest.raises(QuoteError, match=f"{field} must be a real number"):
            QuoteRequest.from_json(
                json.dumps({"family": "two-party", field: value})
            )

    def test_typed_fields_keep_their_digests(self):
        # seed=True once hashed apart from seed=1; the valid spelling
        # keeps the digest it always had.
        assert QuoteRequest(family="two-party", seed=1).digest().startswith(
            "9cc54df0"
        )

    def test_json_round_trip_verifies_digest(self):
        request = QuoteRequest(graph="ring:5", shock=0.06, seed=3)
        again = QuoteRequest.from_json(request.to_json())
        assert again == request
        tampered = json.loads(request.to_json())
        tampered["shock"] = 0.07
        with pytest.raises(QuoteError):
            QuoteRequest.from_json(json.dumps(tampered))


# ----------------------------------------------------------------------
# Quote: premium quantization, digest surface, serialization
# ----------------------------------------------------------------------
class TestQuote:
    def test_premium_is_smallest_clearing_integer(self):
        request = QuoteRequest(family="two-party")
        assert quote_for(request, pi_star=0.045, base=100, provenance="x").premium == 5
        assert quote_for(request, pi_star=0.05, base=100, provenance="x").premium == 5
        assert quote_for(request, pi_star=0.0501, base=100, provenance="x").premium == 6
        assert quote_for(request, pi_star=None, base=100, provenance="x").premium is None

    def test_digest_excludes_tier_and_latency(self):
        request = QuoteRequest(family="two-party")
        fast = quote_for(
            request, pi_star=0.045, base=100, provenance="x", tier=1, latency_ms=0.2
        )
        slow = quote_for(
            request, pi_star=0.045, base=100, provenance="x", tier=3, latency_ms=90.0
        )
        assert fast.digest() == slow.digest()
        assert fast.to_json() != slow.to_json()  # tier/latency still serialized

    def test_digest_covers_the_answer(self):
        request = QuoteRequest(family="two-party")
        one = quote_for(request, pi_star=0.045, base=100, provenance="x")
        other = quote_for(request, pi_star=0.05, base=100, provenance="x")
        assert one.digest() != other.digest()
        assert one.digest() != quote_for(
            request, pi_star=0.045, base=100, provenance="y"
        ).digest()

    def test_json_round_trip_verifies_digest(self):
        engine = QuoteEngine()
        quote = engine.quote(QuoteRequest(family="multi-party"), tiers=(1,))
        again = Quote.from_json(quote.to_json())
        assert again == quote
        assert again.digest() == quote.digest()
        tampered = json.loads(quote.to_json())
        tampered["premium"] = 1
        with pytest.raises(QuoteError):
            Quote.from_json(json.dumps(tampered))

    @staticmethod
    def _unstamped():
        """A valid quote's JSON without its digest stamp: only the type
        checks stand between an edit and a loaded quote."""
        quote = QuoteEngine().quote(QuoteRequest(family="two-party"), tiers=(1,))
        data = json.loads(quote.to_json())
        del data["digest"]
        assert Quote.from_json(json.dumps(data)).digest() == quote.digest()
        return data

    def _refused(self, data, match):
        with pytest.raises(QuoteError, match=match):
            Quote.from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "field", ["request_digest", "family", "coalition", "stage", "provenance"]
    )
    @pytest.mark.parametrize("value", [5, None, ["x"]])
    def test_non_string_text_field_is_refused(self, field, value):
        data = self._unstamped()
        data[field] = value
        self._refused(data, f"{field} must be a string")

    @pytest.mark.parametrize("field", ["premium", "base", "round", "amount"])
    @pytest.mark.parametrize("value", ["5", 5.0, True])
    def test_non_integer_count_is_refused(self, field, value):
        data = self._unstamped()
        if field in ("round", "amount"):
            data["schedule"][0][field] = value
        else:
            data[field] = value
        self._refused(data, f"{field} must be an integer")

    @pytest.mark.parametrize("field", ["shock", "tol", "pi_star"])
    @pytest.mark.parametrize(
        "value, match",
        [
            ("0.045", "must be a real number"),
            (True, "must be a real number"),
            (float("nan"), "must be finite"),
            (float("inf"), "must be finite"),
            (10**400, "must be finite"),
        ],
    )
    def test_non_finite_or_non_numeric_real_is_refused(self, field, value, match):
        data = self._unstamped()
        data[field] = value
        self._refused(data, f"{field} {match}")

    @pytest.mark.parametrize("arc", ["ab", ["a"], ["a", "b", "c"], ["a", 1]])
    def test_arc_that_is_not_two_strings_is_refused(self, arc):
        data = self._unstamped()
        data["schedule"][0]["arc"] = arc
        self._refused(data, "arc must")

    @pytest.mark.parametrize(
        "tier, match",
        [("fast", "must be an integer"), (True, "must be an integer"),
         (4, "must be 0-3"), (-1, "must be 0-3")],
    )
    def test_tier_outside_the_ladder_is_refused(self, tier, match):
        data = self._unstamped()
        data["tier"] = tier
        self._refused(data, f"tier {match}")


# ----------------------------------------------------------------------
# deposit schedules
# ----------------------------------------------------------------------
class TestDepositSchedule:
    def test_two_party_matches_equation_two(self):
        schedule = deposit_schedule("two-party", 5)
        escrow = {
            entry.arc: entry.amount
            for entry in schedule
            if entry.kind == "escrow"
        }
        assert escrow == escrow_premium_amounts(ring_graph(2), ("P0",), 5)
        redemptions = [e for e in schedule if e.kind == "redemption"]
        assert all(e.depositor == e.path[0] for e in redemptions)

    def test_graph_family_schedule(self):
        graph, leaders = parse_graph_family("ring:5")
        schedule = deposit_schedule("ring:5", 2)
        escrow = {
            entry.arc: entry.amount
            for entry in schedule
            if entry.kind == "escrow"
        }
        assert escrow == escrow_premium_amounts(graph, leaders, 2)

    def test_broker_has_all_three_tables(self):
        schedule = deposit_schedule("broker", 3)
        kinds = {entry.kind for entry in schedule}
        assert kinds == {"trading", "escrow", "redemption"}
        # both escrow arcs carry the full trading total (§8.1)
        escrow = [e.amount for e in schedule if e.kind == "escrow"]
        trading_total = sum(e.amount for e in schedule if e.kind == "trading")
        assert escrow == [trading_total, trading_total]

    def test_auction_flat_per_bidder(self):
        schedule = deposit_schedule("auction", 4)
        assert [entry.amount for entry in schedule] == [4, 4]
        assert {entry.depositor for entry in schedule} == {"Alice"}

    def test_one_schedule_per_family_and_premium(self):
        engine = QuoteEngine()
        one, other = (
            engine.quote(QuoteRequest(family="two-party", shock=s), tiers=(1,))
            for s in (0.045, 0.041)
        )
        assert one.premium == other.premium == 5
        assert one.schedule is other.schedule
        with pytest.raises(FrozenInstanceError):
            one.schedule[0].amount = 1
        assert deposit_schedule.cache_info().maxsize is not None

    @pytest.mark.parametrize(
        "family",
        [
            "two-party", "multi-party", "broker", "auction", "ring:4",
            "ring:6", "complete:4", "complete:5", "figure3",
        ],
    )
    @pytest.mark.parametrize("premium", [1, 3])
    def test_schedule_is_linear_in_the_premium(self, family, premium):
        unit = deposit_schedule(family, premium)
        assert unit
        for k in (2, 3, 7, 100):
            assert deposit_schedule(family, k * premium) == tuple(
                replace(entry, amount=k * entry.amount) for entry in unit
            )

    def test_zero_premium_empty_and_errors(self):
        assert deposit_schedule("two-party", 0) == ()
        with pytest.raises(QuoteError):
            deposit_schedule("two-party", -1)
        with pytest.raises(QuoteError):
            deposit_schedule("no-such-family", 3)


# ----------------------------------------------------------------------
# the row store
# ----------------------------------------------------------------------
class TestRowStore:
    def _refined_row(self, **overrides):
        spec = refine_spec(
            families=("two-party",),
            premium_fractions=(0.0, 0.08),
            shock_fractions=(0.045,),
            stages=("staked",),
            engine="kernel",
        )
        report = Experiment(spec).run().refined
        row = report.row("two-party", "staked", 0.045)
        if overrides:
            from dataclasses import replace

            row = replace(row, **overrides)
        return row

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = self._refined_row()
        descriptor = row_descriptor(
            "two-party", "", "staked", 0.045, DEFAULT_TOL, 0
        )
        assert store_row(cache, descriptor, row)
        assert load_row(cache, descriptor) == row
        other = row_descriptor("two-party", "", "staked", 0.06, DEFAULT_TOL, 0)
        assert load_row(cache, other) is None

    def test_unconverged_bracket_is_ineligible(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = self._refined_row(converged=False)
        descriptor = row_descriptor(
            "two-party", "", "staked", 0.045, DEFAULT_TOL, 0
        )
        assert not store_row(cache, descriptor, row)
        assert load_row(cache, descriptor) is None

    def test_undeterred_row_is_a_final_answer(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = self._refined_row(converged=False, pi_hi=None, pi_star=None)
        descriptor = row_descriptor(
            "two-party", "", "staked", 0.045, DEFAULT_TOL, 0
        )
        assert store_row(cache, descriptor, row)
        loaded = load_row(cache, descriptor)
        assert loaded.pi_star is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = self._refined_row()
        descriptor = row_descriptor(
            "two-party", "", "staked", 0.045, DEFAULT_TOL, 0
        )
        store_row(cache, descriptor, row)
        path = tmp_path / f"{row_key(descriptor)}.json"
        path.write_text('{"key": "mismatch", "payload": {}}')
        assert load_row(cache, descriptor) is None

    def test_undecodable_row_is_a_miss_on_every_call(self, tmp_path):
        from repro.obs import Tracer

        cache = ResultCache(tmp_path)
        cache.tracer = tracer = Tracer()
        descriptor = row_descriptor(
            "two-party", "", "staked", 0.045, DEFAULT_TOL, 0
        )
        # Passes the cache's key check; fails the row decode.
        assert cache.put_entry(row_key(descriptor), {"family": "two-party"})
        for _ in range(3):
            assert load_row(cache, descriptor) is None
        counter = tracer.metrics.counter
        assert counter("cache.miss.corrupt") == counter("cache.read") == 3
        assert counter("cache.hit") == 0

    def test_warm_row_is_memoized_until_another_writer_replaces_it(
        self, tmp_path
    ):
        from repro.obs import Tracer

        cache = ResultCache(tmp_path)
        cache.tracer = tracer = Tracer()
        row = self._refined_row()
        descriptor = row_descriptor(
            "two-party", "", "staked", 0.045, DEFAULT_TOL, 0
        )
        assert store_row(cache, descriptor, row)
        assert load_row(cache, descriptor) is load_row(cache, descriptor)
        assert tracer.metrics.counter("cache.read") == 1
        moved = replace(row, pi_star=row.pi_star / 2)
        assert store_row(ResultCache(tmp_path), descriptor, moved)
        assert load_row(cache, descriptor) == moved
        assert tracer.metrics.counter("cache.read") == 2

    def test_experiment_run_warms_the_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = refine_spec(
            families=("two-party",),
            premium_fractions=(0.0, 0.08),
            shock_fractions=(0.045,),
            stages=("staked",),
            engine="kernel",
        )
        Experiment(spec, cache=cache).run()
        # a plain refinement sweep makes the quote a tier-2 hit
        engine = QuoteEngine(cache=cache)
        quote = engine.quote(QuoteRequest(family="two-party"), tiers=(2,))
        assert quote.tier == 2
        assert quote.pi_star is not None

    def test_shared_cache_memoizes_per_root(self, tmp_path):
        first = shared_cache(tmp_path / "store")
        second = shared_cache(tmp_path / "store")
        other = shared_cache(tmp_path / "elsewhere")
        assert first is second
        assert first is not other


# ----------------------------------------------------------------------
# the engine ladder
# ----------------------------------------------------------------------
class TestQuoteEngine:
    def test_tier1_matches_closed_form(self):
        engine = QuoteEngine()
        quote = engine.quote(QuoteRequest(family="two-party"), tiers=(1,))
        assert quote.tier == 1
        assert quote.pi_star == closed_form_pi_star("two-party", 0.045)
        assert quote.premium == 5
        assert quote.schedule  # priced arc by arc
        assert quote.provenance.startswith("closed-form|")

    def test_pre_stake_is_unhedgeable_analytically(self):
        engine = QuoteEngine()
        quote = engine.quote(
            QuoteRequest(family="two-party", stage="pre-stake"), tiers=(1,)
        )
        assert quote.tier == 1
        assert not quote.hedgeable
        assert quote.schedule == ()

    def test_tier2_requires_warm_cache(self):
        engine = QuoteEngine()  # no cache attached
        with pytest.raises(QuoteError):
            engine.quote(QuoteRequest(family="two-party"), tiers=(2,))

    def test_tier3_stores_back_for_tier2(self, tmp_path):
        engine = QuoteEngine(cache=ResultCache(tmp_path))
        request = QuoteRequest(graph="ring:4")
        cold = engine.quote(request)
        warm = engine.quote(request)
        assert (cold.tier, warm.tier) == (3, 2)
        assert cold.digest() == warm.digest()
        assert cold.provenance == warm.provenance
        assert cold.to_json() != warm.to_json()  # tier/latency differ

    def test_unknown_tier_rejected(self):
        engine = QuoteEngine()
        with pytest.raises(QuoteError):
            engine.quote(QuoteRequest(family="two-party"), tiers=(1, 4))

    def test_request_digest_binds_answer_to_question(self):
        engine = QuoteEngine()
        request = QuoteRequest(family="auction", shock=0.06)
        quote = engine.quote(request, tiers=(1,))
        assert quote.request_digest == request.digest()


# ----------------------------------------------------------------------
# digest invariance: repeated, traced, batched
# ----------------------------------------------------------------------
class TestDigestInvariance:
    def test_repeated_quotes_byte_identical(self):
        engine = QuoteEngine()
        request = QuoteRequest(family="multi-party", coalition="P1+P2")
        digests = {engine.quote(request, tiers=(1,)).digest() for _ in range(3)}
        assert len(digests) == 1

    def test_traced_equals_untraced(self, tmp_path):
        from repro.obs import Tracer, TraceWriter, summarize_trace

        # cold (tier 3), then warm tier-2 hits served by the read memo
        request = QuoteRequest(graph="ring:4")
        plain_engine = QuoteEngine(cache=ResultCache(tmp_path / "plain"))
        plain = [plain_engine.quote(request) for _ in range(3)]

        tracer = Tracer(TraceWriter(str(tmp_path / "trace.jsonl")))
        traced_cache = ResultCache(tmp_path / "traced")
        traced_cache.tracer = tracer
        traced_engine = QuoteEngine(cache=traced_cache, tracer=tracer)
        traced = [traced_engine.quote(request) for _ in range(3)]
        tracer.close()

        assert [q.tier for q in traced] == [q.tier for q in plain] == [3, 2, 2]
        assert [q.digest() for q in traced] == [q.digest() for q in plain]
        events = (tmp_path / "trace.jsonl").read_text()
        assert "quote.tier3" in events
        summary = summarize_trace(tmp_path / "trace.jsonl")
        # one row file parsed for two tier-2 hits
        assert summary.counters["cache.read"] == 1
        assert "1 file reads" in summary.render()

    def test_batch_members_match_single_quotes(self, tmp_path):
        requests = [
            QuoteRequest(family="two-party"),
            QuoteRequest(graph="ring:4"),
            QuoteRequest(family="broker", coalition="seller+buyer"),
            QuoteRequest(graph="ring:4"),
        ]
        batch = quote_batch(
            QuoteEngine(cache=ResultCache(tmp_path / "batch")), requests
        )
        singles = [
            QuoteEngine(cache=ResultCache(tmp_path / "single")).quote(r)
            for r in requests
        ]
        assert [q.digest() for q in batch] == [q.digest() for q in singles]
        assert batch_digest(batch) == batch_digest(singles)


# ----------------------------------------------------------------------
# batching
# ----------------------------------------------------------------------
class TestQuoteBatch:
    def test_results_in_input_order(self):
        engine = QuoteEngine()
        requests = [
            QuoteRequest(family="auction"),
            QuoteRequest(family="two-party"),
            QuoteRequest(family="multi-party"),
        ]
        quotes = quote_batch(engine, requests, tiers=(1,))
        assert [q.family for q in quotes] == ["auction", "two-party", "multi-party"]
        assert [q.request_digest for q in quotes] == [r.digest() for r in requests]

    def test_cells_group_by_family_and_coalition(self):
        requests = [
            QuoteRequest(family="multi-party"),
            QuoteRequest(family="multi-party", coalition="P1+P2"),
            QuoteRequest(graph="ring:3"),  # same cell as multi-party pivot
            QuoteRequest(family="two-party"),
        ]
        cells = batch_cells(requests)
        assert [cell for cell, _ in cells] == [
            ("multi-party", ""),
            ("multi-party", "P1+P2"),
            ("two-party", ""),
        ]
        assert dict(cells)[("multi-party", "")] == [0, 2]

    def test_duplicate_measurement_promotes_within_batch(self, tmp_path):
        engine = QuoteEngine(cache=ResultCache(tmp_path))
        requests = [QuoteRequest(graph="ring:4"), QuoteRequest(graph="ring:4")]
        quotes = quote_batch(engine, requests)
        assert [q.tier for q in quotes] == [3, 2]
        assert quotes[0].digest() == quotes[1].digest()

    def test_progress_callback_sees_every_quote(self):
        seen = []
        quote_batch(
            QuoteEngine(),
            [QuoteRequest(family="two-party"), QuoteRequest(family="broker")],
            tiers=(1,),
            progress=lambda update: seen.append((update.done, update.total)),
        )
        assert seen[-1] == (2, 2)


# ----------------------------------------------------------------------
# pinned batch digests: every quote route must keep answering these
# baskets byte-identically
# ----------------------------------------------------------------------
#: the CI quote-smoke job's basket
SMOKE_BASKET = (
    {"family": "two-party"},
    {"family": "multi-party", "coalition": "P1+P2"},
    {"family": "broker", "coalition": "seller+buyer"},
    {"graph": "ring:4"},
    {"family": "auction", "shock": 0.06},
)

#: every named family, both coalitions, both pre-stake verdicts, named
#: shocks off the default, and all three graph kinds (tier 3)
WIDE_BASKET = (
    {"family": "two-party"},
    {"family": "multi-party"},
    {"family": "broker"},
    {"family": "auction"},
    {"family": "two-party", "stage": "pre-stake"},
    {"family": "broker", "stage": "pre-stake"},
    {"family": "multi-party", "coalition": "P1+P2", "shock": 0.07},
    {"family": "broker", "shock": 0.011},
    {"graph": "ring:5"},
    {"graph": "complete:4", "shock": 0.06},
    {"graph": "figure3"},
)


class TestPinnedBatchDigests:
    @pytest.mark.parametrize(
        "basket, digest",
        [
            (
                SMOKE_BASKET,
                "bf0001b48e3bd177bd2432deb03dbc3217313f74918c2ec3cde12af6dd0ba9f8",
            ),
            (
                WIDE_BASKET,
                "054c6d27bb1d504166fbbb84bdf9852e2bf71f7692f0f8ad3c0280df92dbb6a6",
            ),
        ],
        ids=["smoke", "wide"],
    )
    def test_basket_digest_is_pinned(self, tmp_path, basket, digest):
        engine = QuoteEngine(cache=ResultCache(tmp_path))
        quotes = quote_batch(engine, [QuoteRequest(**spec) for spec in basket])
        assert batch_digest(quotes) == digest
