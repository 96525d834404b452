"""Tests for the interprocedural flow pass (repro.lint.flow).

Coverage per the subsystem's contract:

- the core value proposition: the seeded ``flow_helpers.py`` /
  ``seeded_flow.py`` fixture pair is *provably clean* under every
  per-file rule, while the flow pass flags all three flows
  (FLOW001/002/003) with full source→sink call chains,
- transfer-function semantics on minimal two-function programs:
  propagation through calls, neutralizers (``sorted`` strips order
  taint), param→sink summaries, the digest-covered-field hop,
- determinism: the ``--graph json`` export is byte-identical across
  runs, finding order is stable,
- the digest-scope return sink: every ordering/float-text fixture
  site is a FLOW002/FLOW003 finding, while nondet values and taint born
  in a helper are not sunk at a digest-producing function's return,
- the analysis cache: linting the same sources twice reuses one
  analysis.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import all_rules, lint_paths
from repro.lint.__main__ import main as lint_main
from repro.lint.core import SourceFile
from repro.lint.flow import FlowAnalysis, Program, export_graph
from repro.lint.flow.rules import analyze

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
FLOW_PAIR = [FIXTURES / "flow_helpers.py", FIXTURES / "seeded_flow.py"]

PER_FILE_CODES = ["DET001", "DET002", "DET003", "DIG001", "POOL001"]


def lint_snippets(tmp_path: Path, select=None, **modules: str):
    """Write ``name -> source`` modules into one directory and lint it."""
    for name, source in modules.items():
        (tmp_path / f"{name}.py").write_text(source)
    rules = all_rules(select) if select else None
    return lint_paths([tmp_path], rules=rules)


def codes_of(result) -> list[str]:
    return [finding.code for finding in result.findings]


# ----------------------------------------------------------------------
# the seeded fixture pair: per-file rules provably miss, flow catches
# ----------------------------------------------------------------------
class TestSeededFlowFixtures:
    def test_heuristic_rules_provably_silent(self):
        result = lint_paths(FLOW_PAIR, rules=all_rules(PER_FILE_CODES))
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert result.suppressed == 0  # silent, not suppressed-silent

    def test_flow_rules_fire(self):
        result = lint_paths(FLOW_PAIR)
        assert sorted(codes_of(result)) == [
            "FLOW001",
            "FLOW002",
            "FLOW002",
            "FLOW003",
        ]

    def test_nondet_chain_spans_two_hops(self):
        result = lint_paths(FLOW_PAIR)
        [hit] = [f for f in result.findings if f.code == "FLOW001"]
        assert hit.chain == (
            "flow_helpers.wall_stamp",
            "flow_helpers.jittered_stamp",
            "seeded_flow.digest_batch",
        )
        # The source anchor points at the hazard in the *helper* module,
        # the finding itself at the sink in seeded_flow.py.
        assert hit.source_ref is not None
        assert hit.source_ref[0].endswith("flow_helpers.py")
        assert hit.path.endswith("seeded_flow.py")
        assert "time.perf_counter" in hit.message

    def test_field_hop_chain_names_the_dataclass_field(self):
        result = lint_paths(FLOW_PAIR)
        chains = [f.chain for f in result.findings if f.code == "FLOW002"]
        # One FLOW002 lands on the covered-field write, the other follows
        # the stored taint into the field's digest() consumer.
        assert any("field MemberReport.members" in chain for chain in chains)

    def test_lossy_chain_reaches_label_sink(self):
        result = lint_paths(FLOW_PAIR)
        [hit] = [f for f in result.findings if f.code == "FLOW003"]
        assert hit.chain[0] == "flow_helpers.pct_text"
        assert "label output" in hit.message


# ----------------------------------------------------------------------
# transfer-function semantics on minimal programs
# ----------------------------------------------------------------------
class TestFlowSemantics:
    def test_nondet_return_through_one_call(self, tmp_path):
        result = lint_snippets(
            tmp_path,
            mod=(
                "import hashlib, time\n"
                "def stamp():\n"
                "    return time.perf_counter()\n"
                "def run_digest(payload):\n"
                "    h = hashlib.sha256(payload)\n"
                "    h.update(repr(stamp()).encode())\n"
                "    return h.hexdigest()\n"
            ),
        )
        assert codes_of(result) == ["FLOW001"]
        assert result.findings[0].chain == ("mod.stamp", "mod.run_digest")

    def test_sorted_neutralizes_order_taint(self, tmp_path):
        result = lint_snippets(
            tmp_path,
            mod=(
                "import hashlib\n"
                "def dedup(raw):\n"
                "    return sorted({r.strip() for r in raw})\n"
                "def run_digest(raw):\n"
                "    h = hashlib.sha256()\n"
                "    for item in dedup(raw):\n"
                "        h.update(item.encode())\n"
                "    return h.hexdigest()\n"
            ),
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_param_sink_summary_flags_the_caller_argument(self, tmp_path):
        # The hazard (a set comprehension) is in the *caller*; the sink
        # (hashing the parameter) is in the *callee*.  Neither function
        # is flaggable alone — the param-sink summary connects them.
        result = lint_snippets(
            tmp_path,
            mod=(
                "import hashlib\n"
                "def hash_items(items):\n"
                "    h = hashlib.sha256()\n"
                "    for item in items:\n"
                "        h.update(item.encode())\n"
                "    return h.hexdigest()\n"
                "def collect(raw):\n"
                "    return hash_items({r.strip() for r in raw})\n"
            ),
        )
        assert codes_of(result) == ["FLOW002"]
        assert "mod.hash_items" in result.findings[0].chain

    def test_cross_module_resolution(self, tmp_path):
        result = lint_snippets(
            tmp_path,
            helpers=(
                "import time\n"
                "def now():\n"
                "    return time.perf_counter()\n"
            ),
            sink=(
                "import hashlib\n"
                "from helpers import now\n"
                "def run_digest():\n"
                "    return hashlib.sha256(repr(now()).encode()).hexdigest()\n"
            ),
        )
        assert codes_of(result) == ["FLOW001"]
        assert result.findings[0].chain == ("helpers.now", "sink.run_digest")

    def test_json_dumps_sort_keys_is_a_sink(self, tmp_path):
        result = lint_snippets(
            tmp_path,
            mod=(
                "import json, time\n"
                "def payload():\n"
                "    return json.dumps(\n"
                "        {'t': time.perf_counter()}, sort_keys=True\n"
                "    )\n"
            ),
        )
        assert codes_of(result) == ["FLOW001"]

    def test_json_dumps_without_sort_keys_is_transport_not_sink(
        self, tmp_path
    ):
        # Plain json.dumps is serialization for transport; only the
        # canonical (sort_keys) form marks digest material.
        result = lint_snippets(
            tmp_path,
            mod=(
                "import json, time\n"
                "def to_json():\n"
                "    return json.dumps({'t': time.perf_counter()})\n"
            ),
        )
        assert result.ok

    def test_uncovered_field_is_not_a_sink(self, tmp_path):
        # Report.note is declared but never hashed by digest(): writing
        # tainted data into it must not fire FLOW — that is DIG001's job.
        result = lint_snippets(
            tmp_path,
            mod=(
                "import hashlib\n"
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Report:\n"
                "    name: str\n"
                "    note: str\n"
                "    def digest(self):\n"
                "        return hashlib.sha256(self.name.encode()).hexdigest()\n"
                "def build(raw):\n"
                "    return Report(name='r', note=','.join({r for r in raw}))\n"
            ),
            select=["FLOW001", "FLOW002", "FLOW003"],
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_inline_suppression_applies_to_flow_findings(self, tmp_path):
        result = lint_snippets(
            tmp_path,
            mod=(
                "import hashlib, time\n"
                "def stamp():\n"
                "    return time.perf_counter()\n"
                "def run_digest():\n"
                "    raw = repr(stamp()).encode()\n"
                "    return hashlib.sha256(raw).hexdigest()"
                "  # lint: disable=FLOW001\n"
            ),
        )
        assert result.ok
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# graph export determinism
# ----------------------------------------------------------------------
class TestGraphExport:
    def _analyze_fixtures(self):
        sources = [
            SourceFile.load(path, REPO_ROOT) for path in sorted(FLOW_PAIR)
        ]
        program = Program(sources)
        return program, FlowAnalysis(program)

    def test_json_export_byte_identical_across_runs(self):
        first = export_graph(*self._analyze_fixtures(), fmt="json")
        second = export_graph(*self._analyze_fixtures(), fmt="json")
        assert first == second

    def test_json_export_shape(self):
        payload = json.loads(export_graph(*self._analyze_fixtures(), "json"))
        assert payload["version"] == 1
        labels = [node["id"] for node in payload["nodes"]]
        assert "seeded_flow.digest_batch" in labels
        assert "seeded_flow.MemberReport" in labels  # class nodes too
        edges = {
            (edge["caller"], edge["callee"]) for edge in payload["edges"]
        }
        assert (
            "seeded_flow.digest_batch",
            "flow_helpers.jittered_stamp",
        ) in edges
        assert payload["counts"]["nodes"] == len(payload["nodes"])

    def test_unresolvable_calls_become_open_edges_not_drops(self):
        payload = json.loads(export_graph(*self._analyze_fixtures(), "json"))
        # acc.update / member.encode etc. resolve to no known function;
        # they must be *recorded* as open edges, never silently dropped.
        open_calls = {edge["callee"] for edge in payload["open_edges"]}
        assert any("update" in call for call in open_calls)
        assert all(edge["reason"] for edge in payload["open_edges"])

    def test_dot_export_renders(self):
        dot = export_graph(*self._analyze_fixtures(), fmt="dot")
        assert dot.startswith("digraph")
        assert "seeded_flow" in dot

    def test_cli_graph_json_deterministic(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import hashlib\n"
            "def run_digest(payload):\n"
            "    return hashlib.sha256(payload).hexdigest()\n"
        )
        outs = []
        for _ in range(2):
            assert lint_main([str(tmp_path), "--graph", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["counts"]["nodes"] == 1

    def test_cli_graph_syntax_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert lint_main([str(tmp_path), "--graph", "json"]) == 2
        assert "cannot parse" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the digest-scope return sink
# ----------------------------------------------------------------------
#: every ordering/float-text site the per-file scope rules used to flag
#: in the fixtures, pinned to its flow finding:
#: (file, code, finding line, source line).  Findings anchor at the sink
#: (hash update, label or digest-scope ``def`` line); the source line is
#: the hazard itself, or the ``def`` line for a set-typed parameter.
FORMER_SCOPE_SITES = [
    ("seeded_canon.py", "FLOW003", 10, 9),  # f"{pi:g}" hashed
    ("seeded_canon.py", "FLOW003", 10, 9),  # f"{shock:.6f}" hashed
    ("seeded_canon.py", "FLOW003", 13, 14),  # format(pi, "g") in a label
    ("seeded_canon.py", "FLOW003", 17, 18),  # "s=%g" returned from a payload
    ("seeded_ord.py", "FLOW002", 10, 9),  # rglob walk hashed
    ("seeded_ord.py", "FLOW002", 17, 14),  # set parameter hashed
    ("seeded_ord.py", "FLOW002", 21, 23),  # set joined into a label
    ("seeded_obs.py", "FLOW002", 60, 57),  # set of span names hashed
    ("seeded_quote.py", "FLOW002", 53, 44),  # tier set hashed
]


class TestReturnSink:
    def test_former_scope_sites_are_flow_findings(self):
        files = sorted({name for name, *_ in FORMER_SCOPE_SITES})
        result = lint_paths([FIXTURES / name for name in files])
        found = sorted(
            (Path(f.path).name, f.code, f.line, f.source_ref[1])
            for f in result.findings
            if f.code in ("FLOW002", "FLOW003")
        )
        assert found == sorted(FORMER_SCOPE_SITES)

    def test_nondet_is_not_sunk_at_a_return(self, tmp_path):
        # Wall-clock fields travel in to_json payloads without being
        # hashed; only order and float text sink at a return.
        result = lint_snippets(
            tmp_path,
            mod=(
                "import json, time\n"
                "class Report:\n"
                "    def to_json(self):\n"
                "        return json.dumps({'elapsed': time.perf_counter()})\n"
            ),
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_helper_taint_is_not_sunk_at_a_return(self, tmp_path):
        # The set is born in a helper: only taint born in the
        # digest-producing function's own body sinks at its return.
        result = lint_snippets(
            tmp_path,
            mod=(
                "import json\n"
                "def members(raw):\n"
                "    return {r.strip() for r in raw}\n"
                "def to_json(raw):\n"
                "    return json.dumps(list(members(raw)))\n"
            ),
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)


# ----------------------------------------------------------------------
# the analysis cache
# ----------------------------------------------------------------------
class TestAnalysisCache:
    def test_same_content_reuses_one_analysis(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def f():\n"
            "    return 1\n"
        )
        sources = [SourceFile.load(tmp_path / "mod.py", tmp_path)]
        first = analyze(sources)
        second = analyze(
            [SourceFile.load(tmp_path / "mod.py", tmp_path)]
        )
        assert first[1] is second[1]

    def test_changed_content_recomputes(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("def f():\n    return 1\n")
        first = analyze([SourceFile.load(path, tmp_path)])
        path.write_text("def f():\n    return 2\n")
        second = analyze([SourceFile.load(path, tmp_path)])
        assert first[1] is not second[1]
