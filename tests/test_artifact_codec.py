"""Artifact files written by an earlier release keep loading, byte for byte.

Every file under ``artifact_fixtures/`` was written by the release before
artifact decoding moved to :mod:`repro.codec`: a campaign shard, a
frontier and a refined frontier (each with a coalition row), three
experiment specs, two quote requests, two quotes, one result-cache block
entry and one refined-row entry.  Each must load, re-encode to the
identical bytes and keep its stamped digest.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import types
import typing
from pathlib import Path

import pytest

from repro.campaign.ablation.refine import RefinedRow
from repro.campaign.ablation.rowstore import load_row, row_descriptor, row_key, store_row
from repro.campaign.cache import ResultCache
from repro.campaign.experiment import ExperimentError, ExperimentSpec
from repro.campaign.report import Report, report_from_json
from repro.campaign.scenario import ScenarioResult
from repro.errors import DecodeError
from repro.quote import Quote, QuoteError, QuoteRequest

FIXTURES = Path(__file__).parent / "artifact_fixtures"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, stamp",
    [
        ("campaign_shard.json", "run_digest"),
        ("frontier.json", "digest"),
        ("refined.json", "digest"),
    ],
)
def test_report_fixture_re_encodes_to_its_bytes(name, stamp):
    text = fixture(name)
    report = report_from_json(text)
    assert report.to_json() == text
    assert report.digest == json.loads(text)[stamp]


@pytest.mark.parametrize("name", ["campaign_shard.json", "frontier.json", "refined.json"])
def test_report_from_json_parses_its_text_once(monkeypatch, name):
    import repro.campaign.report as report_module

    text, parses, loads = fixture(name), [], json.loads

    def counted(*args, **kwargs):
        parses.append(args[0])
        return loads(*args, **kwargs)

    monkeypatch.setattr(report_module.json, "loads", counted)
    assert report_from_json(text).to_json() == text
    assert parses == [text]


@pytest.mark.parametrize(
    "name, cls",
    [
        ("spec_campaign.json", ExperimentSpec),
        ("spec_ablate.json", ExperimentSpec),
        ("spec_refine.json", ExperimentSpec),
        ("quote_request_family.json", QuoteRequest),
        ("quote_request_graph.json", QuoteRequest),
        ("quote_hedgeable.json", Quote),
        ("quote_unhedgeable.json", Quote),
    ],
)
def test_stamped_fixture_re_encodes_to_its_bytes(name, cls):
    text = fixture(name)
    loaded = cls.from_json(text)
    assert loaded.to_json() == text
    assert loaded.digest() == json.loads(text)["digest"]


def test_quote_fixtures_cover_a_redemption_path_and_no_answer():
    hedged = Quote.from_json(fixture("quote_hedgeable.json"))
    assert any(entry.path for entry in hedged.schedule)
    assert not Quote.from_json(fixture("quote_unhedgeable.json")).hedgeable


def test_cache_block_entry_re_encodes_to_its_bytes(tmp_path):
    text = fixture("cache_block.json")
    key = json.loads(text)["key"]
    size = len(json.loads(text)["results"])
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / f"{key}.json").write_text(text, encoding="utf-8")
    results = ResultCache(tmp_path / "old").get(key, size)
    assert results is not None and len(results) == size
    fresh = ResultCache(tmp_path / "new")
    assert fresh.put(key, results)
    assert (tmp_path / "new" / f"{key}.json").read_text(encoding="utf-8") == text


def test_refined_row_entry_re_encodes_to_its_bytes(tmp_path):
    # The row key carries the code version, so the entry is re-filed
    # under this tree's key; the payload bytes are the old release's.
    text = fixture("cache_row.json")
    payload = json.loads(text)["payload"]
    descriptor = row_descriptor(
        payload["family"], payload["coalition"], payload["stage"],
        payload["shock"], 0.03125,
    )
    key = row_key(descriptor)
    text = text.replace(json.loads(text)["key"], key)
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / f"{key}.json").write_text(text, encoding="utf-8")
    row = load_row(ResultCache(tmp_path / "old"), descriptor)
    assert row is not None and len(row.probes) == 4
    assert store_row(ResultCache(tmp_path / "new"), descriptor, row)
    assert (tmp_path / "new" / f"{key}.json").read_text(encoding="utf-8") == text


# ----------------------------------------------------------------------
# mutation sweep: every value of every fixture, replaced by junk
# ----------------------------------------------------------------------
JUNK = (3, -1, 2.5, "x", "", [], {}, None, True, [1, "a"], {"a": 1})


def _paths(node, path=()):
    """Every value's path in a JSON document: each object key and the
    first two items of each array, the document itself included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node[:2]):
            yield from _paths(value, path + (index,))


def _mutants(document):
    """(path, mutated document) for each path and each junk value."""
    for path in _paths(document):
        for junk in JUNK:
            mutant = copy.deepcopy(document)
            if not path:
                yield path, junk
                continue
            parent = mutant
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = junk
            yield path, mutant


def _check_typed(value, tp, where="document"):
    """Assert ``value`` has exactly the type its annotation declares."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is typing.Any:
        return
    if tp is tuple:
        assert type(value) is tuple, where
    elif origin in (typing.Union, types.UnionType):
        if value is not None:
            (inner,) = (arg for arg in args if arg is not type(None))
            _check_typed(value, inner, where)
    elif origin in (list, tuple) and (origin is list or args[-1] is Ellipsis):
        assert type(value) is origin, where
        for index, item in enumerate(value):
            _check_typed(item, args[0], f"{where}[{index}]")
    elif origin is tuple:
        assert type(value) is tuple and len(value) == len(args), where
        for index, (item, arg) in enumerate(zip(value, args)):
            _check_typed(item, arg, f"{where}[{index}]")
    elif hasattr(tp, "_fields"):
        assert type(value) is tp, where
        for name, hint in typing.get_type_hints(tp).items():
            _check_typed(getattr(value, name), hint, f"{where}.{name}")
    elif dataclasses.is_dataclass(tp):
        assert type(value) is tp, where
        hints = typing.get_type_hints(tp)
        for field in dataclasses.fields(tp):
            if field.init:
                _check_typed(
                    getattr(value, field.name), hints[field.name],
                    f"{where}.{field.name}",
                )
    else:
        assert type(value) is tp, f"{where}: {value!r} is not {tp.__name__}"


#: what the plain ValueErrors of report dispatch and digest checks say.
REFUSALS = ("mismatch", "unknown report kind", "not a recognizable report")


def _defined(err: Exception, allowed: type) -> bool:
    """The defined failure: the artifact's own error type, or a plain
    ValueError from report dispatch or a stamped digest or kind that does
    not match."""
    if isinstance(err, allowed):
        return True
    return type(err) is ValueError and any(text in str(err) for text in REFUSALS)


@pytest.mark.parametrize(
    "name, cls, allowed",
    [
        ("campaign_shard.json", Report, DecodeError),
        ("frontier.json", Report, DecodeError),
        ("refined.json", Report, DecodeError),
        ("spec_campaign.json", ExperimentSpec, ExperimentError),
        ("spec_ablate.json", ExperimentSpec, ExperimentError),
        ("spec_refine.json", ExperimentSpec, ExperimentError),
        ("quote_request_family.json", QuoteRequest, QuoteError),
        ("quote_request_graph.json", QuoteRequest, QuoteError),
        ("quote_hedgeable.json", Quote, QuoteError),
        ("quote_unhedgeable.json", Quote, QuoteError),
    ],
)
def test_every_mutant_loads_well_typed_or_fails_with_the_defined_error(
    name, cls, allowed
):
    # Reports load the way `merge` reads them: dispatched on their kind.
    load = report_from_json if cls is Report else cls.from_json
    escapes = []
    for path, mutant in _mutants(json.loads(fixture(name))):
        try:
            loaded = load(json.dumps(mutant))
        except Exception as err:  # noqa: BLE001 - classified below
            if not _defined(err, allowed):
                escapes.append((path, _value_at(mutant, path), repr(err)))
            elif isinstance(err, DecodeError) and path:
                assert err.path, (path, str(err))
            continue
        _check_typed(loaded, type(loaded), f"{name}{list(path)}")
    assert not escapes, escapes[:5]


def _value_at(document, path):
    for step in path:
        document = document[step]
    return document


def test_every_cache_block_mutant_is_a_miss_or_a_typed_hit(tmp_path):
    document = json.loads(fixture("cache_block.json"))
    key, size = document["key"], len(document["results"])
    for number, (path, mutant) in enumerate(_mutants(document)):
        root = tmp_path / str(number)
        root.mkdir()
        (root / f"{key}.json").write_text(json.dumps(mutant), encoding="utf-8")
        results = ResultCache(root).get(key, size)
        if results is not None:
            _check_typed(results, list[ScenarioResult], f"results{list(path)}")


def test_every_refined_row_mutant_is_a_miss_or_a_typed_hit(tmp_path):
    document = json.loads(fixture("cache_row.json"))
    payload = document["payload"]
    descriptor = row_descriptor(
        payload["family"], payload["coalition"], payload["stage"],
        payload["shock"], 0.03125,
    )
    document["key"] = key = row_key(descriptor)
    loaded = 0
    for number, (path, mutant) in enumerate(_mutants(document)):
        root = tmp_path / str(number)
        root.mkdir()
        (root / f"{key}.json").write_text(json.dumps(mutant), encoding="utf-8")
        row = load_row(ResultCache(root), descriptor)
        if row is not None:
            loaded += 1
            _check_typed(row, RefinedRow, f"row{list(path)}")
    assert loaded  # the well-typed mutants (e.g. another float) still load


# ----------------------------------------------------------------------
# the CLI reports an ill-typed file in one line, naming the field path
# ----------------------------------------------------------------------
def _broken(tmp_path, name: str, path: tuple, value) -> str:
    document = json.loads(fixture(name))
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    target = tmp_path / f"broken-{name}"
    target.write_text(json.dumps(document), encoding="utf-8")
    return str(target)


@pytest.mark.parametrize(
    "argv, name, path, value, named",
    [
        (["merge"], "campaign_shard.json", ("shard",), {"a": 1}, "shard"),
        (["run"], "spec_ablate.json", ("workers",), "x", "workers"),
        (
            ["ablate-refine", "--from"], "frontier.json",
            ("rows", 0, "cells", 1, "walked"), 3, "rows[0].cells[1].walked",
        ),
    ],
)
def test_cli_refuses_an_ill_typed_file_in_one_line(
    tmp_path, capsys, argv, name, path, value, named
):
    from repro.cli import main

    with pytest.raises(SystemExit) as exited:
        main([*argv, _broken(tmp_path, name, path, value)])
    message = str(exited.value.code)
    assert message.startswith("error") and named in message
    assert "Traceback" not in capsys.readouterr().err


def test_cli_quote_batch_refuses_an_ill_typed_stamp(tmp_path, capsys):
    from repro.cli import main

    request = json.loads(fixture("quote_request_graph.json"))
    request["digest"] = 3
    batch = tmp_path / "requests.json"
    batch.write_text(json.dumps([request]), encoding="utf-8")
    with pytest.raises(SystemExit, match="^error: digest must be a string"):
        main(["quote-batch", str(batch)])
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "tp, good, decoded, bad, message",
    [
        (int, 3, 3, True, "document must be an integer, got True"),
        (str, "x", "x", 3, "document must be a string, got 3"),
        (tuple[int, ...], [1, 2], (1, 2), [1, True], "[1] must be an integer, got True"),
        (
            tuple[str, int],
            ["a", 1],
            ("a", 1),
            ["a", False],
            "document must be an array of 2 items: [1] must be an integer, got False",
        ),
        (
            tuple[tuple[str, int], ...],
            [["a", 1]],
            (("a", 1),),
            [["a", 1], [True, 1]],
            "[1] must be an array of 2 items: [0] must be a string, got True",
        ),
    ],
)
def test_exact_scalars_pass_and_a_bool_is_never_an_int(tp, good, decoded, bad, message):
    """The codec passes exact-typed scalars through after one ``type()``
    comparison; anything else, a bool where an int is due included, takes
    the checking decoder and fails with the field path."""
    from repro import codec

    assert codec.decode(tp, good) == decoded
    with pytest.raises(DecodeError) as err:
        codec.decode(tp, bad)
    assert str(err.value) == message


# ----------------------------------------------------------------------
# the Python route: the same decoders, the same refusals
# ----------------------------------------------------------------------
FRONT_DOORS = [
    ("spec_campaign.json", ExperimentSpec, ExperimentError),
    ("spec_ablate.json", ExperimentSpec, ExperimentError),
    ("spec_refine.json", ExperimentSpec, ExperimentError),
    ("quote_request_family.json", QuoteRequest, QuoteError),
    ("quote_request_graph.json", QuoteRequest, QuoteError),
    ("quote_hedgeable.json", Quote, QuoteError),
    ("quote_unhedgeable.json", Quote, QuoteError),
]


def _built(build, *allowed: type):
    """What ``build()`` gives: the object, or the text of its defined
    error; any other exception is an escape and fails the test."""
    try:
        return build()
    except allowed as err:
        return f"refused: {err}"


@pytest.mark.parametrize("name, cls, allowed", FRONT_DOORS)
def test_every_python_mutant_matches_its_json_decode(name, cls, allowed):
    """Junk in any field, passed to the constructor, gives the error the
    JSON decode of the same junk gives, or an equal object."""
    from repro import codec

    loaded = cls.from_json(fixture(name))
    fields = {
        field.name: getattr(loaded, field.name)
        for field in dataclasses.fields(cls)
        if field.init
    }
    document = codec.encode(loaded)
    refused = 0
    for field in fields:
        for junk in JUNK:
            python = _built(lambda: cls(**{**fields, field: junk}), allowed)
            decoded = _built(
                lambda: codec.decode(cls, {**document, field: junk}), DecodeError, allowed
            )
            assert python == decoded, (field, junk)
            refused += isinstance(python, str)
    assert refused >= len(fields) * 5  # most junk is refused, field by field
    # A nested dataclass that never checks itself (a spec's MatrixSpec) is
    # checked by its holder: junk in its fields is refused as in JSON.
    nested_refused = 0
    for field, value in fields.items():
        if not dataclasses.is_dataclass(value):
            continue
        inner = {name: getattr(value, name) for name in codec.encode(value)}
        for name in inner:
            for junk in JUNK:
                nested = type(value)(**{**inner, name: junk})
                python = _built(lambda: cls(**{**fields, field: nested}), allowed)
                decoded = _built(
                    lambda: codec.decode(
                        cls, {**document, field: {**document[field], name: junk}}
                    ),
                    DecodeError,
                    allowed,
                )
                assert python == decoded, (field, name, junk)
                nested_refused += isinstance(python, str)
    assert cls is not ExperimentSpec or nested_refused >= 5


def test_python_built_specs_round_trip_through_json():
    from repro.campaign.experiment import ablate_spec, campaign_spec, refine_spec

    grid = dict(families=("two-party",), premium_fractions=(0, 0.04), shock_fractions=(0.045,))
    matrix = campaign_spec().matrix
    specs = [
        campaign_spec(),
        campaign_spec(families=("broker",), limit=5, workers=2, shard=(1, 2)),
        campaign_spec(expect=[("campaign", "ab" * 32)]),
        ablate_spec(**grid),
        ablate_spec(engine="simulator", backend="pooled", workers=1, **grid),
        refine_spec(tol=1, **grid),
        refine_spec(tol=0.03125, **grid),
        ExperimentSpec(kind="campaign", matrix=matrix, shard=[2, 3], expect=[["x", "y"]]),
    ]
    for spec in specs:
        assert ExperimentSpec.from_json(spec.to_json()) == spec, spec
        assert ExperimentSpec.from_json(spec.to_json()).to_json() == spec.to_json()
    assert specs[-1].shard == (2, 3) and specs[-1].expect == (("x", "y"),)
    assert specs[5].tol == 1.0 and type(specs[5].tol) is float


@pytest.mark.parametrize("matrix", ["x", 3, None, object(), ("ablation", ())])
def test_a_spec_refuses_a_matrix_that_is_not_a_matrix_spec(matrix):
    with pytest.raises(ExperimentError, match="^matrix must be a MatrixSpec"):
        ExperimentSpec(kind="campaign", matrix=matrix)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"limit": True}, "limit must be an integer, got True"),
        ({"limit": 2.5}, "limit must be an integer, got 2.5"),
        ({"expect": (("campaign", 5),)}, "expect[0] must be an array of 2 items"),
    ],
)
def test_a_spec_python_refuses_what_its_json_would(fields, message):
    """A spec built from Python that its own ``from_json`` would refuse is
    refused at construction, with the same field path."""
    from repro.campaign.experiment import campaign_spec

    with pytest.raises(ExperimentError) as refused:
        ExperimentSpec(kind="campaign", matrix=campaign_spec().matrix, **fields)
    assert str(refused.value).startswith(message)
