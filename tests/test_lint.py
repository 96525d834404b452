"""Tests for the determinism linter (repro.lint).

Coverage per the subsystem's contract:

- every rule family: a flagging case, a suppressed case, and a clean
  case (both as inline snippets and via the committed seeded fixtures),
- the suppression and baseline machinery (round-trip, multiset matching,
  stale-entry reporting, justification requirement),
- the CLI: exit codes, --select, --write-baseline, --list-rules,
- the whole-tree smoke: ``src/repro`` is clean modulo the committed
  baseline — the same assertion CI's ``lint`` job gates on.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import Baseline, LintError, all_rules, lint_paths, rule_codes
from repro.lint.__main__ import main as lint_main
from repro.lint.core import SourceFile
from repro.lint.engine import discover_files

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def lint_snippet(tmp_path: Path, source: str, select: list[str] | None = None):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    rules = all_rules(select) if select else None
    return lint_paths([path], rules=rules)


def codes_of(result) -> list[str]:
    return [finding.code for finding in result.findings]


# ----------------------------------------------------------------------
# DET001 / DET002
# ----------------------------------------------------------------------
class TestDeterminismRules:
    def test_flags_wall_clock_and_entropy(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import time, os, uuid\n"
            "def stamp(d):\n"
            "    d['t'] = time.time()\n"
            "    d['u'] = uuid.uuid4()\n"
            "    d['n'] = os.urandom(4)\n"
            "    d['i'] = id(d)\n",
        )
        assert codes_of(result) == ["DET001"] * 4

    def test_resolves_import_aliases(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from time import time as clock\n"
            "def stamp():\n"
            "    return clock()\n",
        )
        assert codes_of(result) == ["DET001"]
        assert "time.time" in result.findings[0].message

    def test_datetime_now_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return datetime.now()\n",
        )
        assert codes_of(result) == ["DET001"]

    def test_unseeded_rng_flagged_seeded_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import random\n"
            "import numpy as np\n"
            "def draw():\n"
            "    a = random.random()\n"          # DET002
            "    b = random.Random()\n"          # DET002
            "    c = np.random.default_rng()\n"  # DET002
            "    d = random.Random(7)\n"         # clean: seeded
            "    e = np.random.default_rng(7)\n" # clean: seeded
            "    return a, b, c, d, e\n",
        )
        assert codes_of(result) == ["DET002"] * 3

    def test_perf_counter_is_blessed(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import time\n"
            "def measure():\n"
            "    return time.perf_counter()\n",
        )
        assert result.ok

    def test_inline_suppression_counts(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import time\n"
            "def stamp():\n"
            "    return time.time()  # lint: disable=DET001\n",
        )
        assert result.ok
        assert result.suppressed == 1

    def test_suppression_in_string_is_not_honored(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import time\n"
            "def stamp():\n"
            "    return time.time(), '# lint: disable=DET001'\n",
        )
        assert codes_of(result) == ["DET001"]


# ----------------------------------------------------------------------
# DET003
# ----------------------------------------------------------------------
class TestTelemetryInDigestRule:
    def test_snapshot_readback_in_digest_scope(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from hashlib import sha256\n"
            "def run_digest(tracer, payload):\n"
            "    h = sha256(payload)\n"
            "    h.update(str(tracer.metrics.snapshot()).encode())\n"
            "    return h.hexdigest()\n",
        )
        assert codes_of(result) == ["DET003"]

    def test_obs_call_in_payload_scope(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import json\n"
            "from repro.obs import phase_fragments\n"
            "def bench_payload(snap):\n"
            "    return json.dumps(phase_fragments(snap))\n",
        )
        assert codes_of(result) == ["DET003"]

    def test_write_only_span_is_blessed(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from hashlib import sha256\n"
            "from repro.obs import maybe_span\n"
            "def spec_digest(tracer, payload):\n"
            "    with maybe_span(tracer, 'digest'):\n"
            "        return sha256(payload).hexdigest()\n",
        )
        assert result.ok

    def test_readback_outside_digest_scope_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def render(tracer):\n"
            "    snap = tracer.metrics.snapshot()\n"
            "    return len(snap.counters)\n",
        )
        assert result.ok

    def test_simulation_snapshot_is_not_telemetry(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from hashlib import sha256\n"
            "def state_digest(chain):\n"
            "    h = sha256()\n"
            "    for k, v in sorted(chain.ledger.snapshot().items()):\n"
            "        h.update(f'{k}={v}'.encode())\n"
            "    return h.hexdigest()\n",
        )
        assert result.ok


# ----------------------------------------------------------------------
# ordering hazards (FLOW002)
# ----------------------------------------------------------------------
class TestOrderingRule:
    def test_unsorted_walk_in_digest_function(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from hashlib import sha256\n"
            "def tree_digest(root):\n"
            "    h = sha256()\n"
            "    for p in root.rglob('*.py'):\n"
            "        h.update(p.read_bytes())\n"
            "    return h.hexdigest()\n",
        )
        # The walk's entries reach the hash sink in filesystem order.
        assert codes_of(result) == ["FLOW002"]

    def test_sorted_walk_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from hashlib import sha256\n"
            "def tree_digest(root):\n"
            "    h = sha256()\n"
            "    for p in sorted(root.rglob('*.py')):\n"
            "        h.update(p.read_bytes())\n"
            "    return h.hexdigest()\n",
        )
        assert result.ok

    def test_set_typed_param_iteration(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import json\n"
            "def to_json(members: set) -> str:\n"
            "    return json.dumps([m for m in members])\n",
        )
        assert codes_of(result) == ["FLOW002"]
        assert "digest-scope return (to_json)" in result.findings[0].message

    def test_set_literal_join_in_payload(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def payload(parties):\n"
            "    return ','.join({p for p in parties})\n",
        )
        assert codes_of(result) == ["FLOW002"]

    def test_order_free_consumers_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from hashlib import sha256\n"
            "def count_digest(members: set) -> str:\n"
            "    total = sum(len(m) for m in members)\n"
            "    biggest = max({len(m) for m in members})\n"
            "    return sha256(f'{total}|{biggest}'.encode()).hexdigest()\n",
        )
        assert result.ok

    def test_set_iteration_outside_digest_scope_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def collect(members: set) -> list:\n"
            "    return [m for m in members]\n",
        )
        assert result.ok

    def test_real_regression_shape_code_version(self, tmp_path):
        # The exact shape of cache.code_version's bug class: a source
        # walk feeding a digest, missing its sorted().
        result = lint_snippet(
            tmp_path,
            "from hashlib import sha256\n"
            "from pathlib import Path\n"
            "def code_version():\n"
            "    h = sha256()\n"
            "    for p in Path('src').rglob('*.py'):\n"
            "        h.update(p.read_bytes())\n"
            "    return h.hexdigest()\n",
        )
        assert codes_of(result) == ["FLOW002"]


# ----------------------------------------------------------------------
# float-text hazards (FLOW003)
# ----------------------------------------------------------------------
class TestCanonFloatRule:
    def test_lossy_fstring_in_digest_code(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from hashlib import sha256\n"
            "def cell_digest(pi):\n"
            "    return sha256(f'{pi:g}'.encode()).hexdigest()\n",
        )
        assert codes_of(result) == ["FLOW003"]

    def test_format_call_and_printf_in_label_code(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def axis_label(pi, shock):\n"
            "    return format(pi, 'g') + '%g' % shock\n",
        )
        # Both lossy spellings reach the label output.
        assert codes_of(result) == ["FLOW003", "FLOW003"]

    def test_canonicalized_value_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from hashlib import sha256\n"
            "from repro.campaign.canon import canon_float, fmt_fraction\n"
            "def cell_digest(pi, shock):\n"
            "    line = f'{fmt_fraction(pi)}|{canon_float(shock)!r}'\n"
            "    return sha256(line.encode()).hexdigest()\n",
        )
        assert result.ok

    def test_presentation_scope_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def progress(pi):\n"
            "    return f'refining pi={pi:g}'\n",
        )
        assert result.ok


# ----------------------------------------------------------------------
# POOL001
# ----------------------------------------------------------------------
class TestPoolRule:
    def test_lambda_in_matrix_spec(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from repro.campaign.pool import MatrixSpec\n"
            "def build():\n"
            "    return MatrixSpec(factory='f', args=(lambda: 1,), kwargs=())\n",
        )
        assert codes_of(result) == ["POOL001"]

    def test_closure_reference_into_run_indices(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def dispatch(pool, spec, digest):\n"
            "    def helper():\n"
            "        return 1\n"
            "    return pool.run_indices(spec, digest, helper)\n",
        )
        assert codes_of(result) == ["POOL001"]

    def test_nested_factory_registration(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from repro.campaign.pool import register_matrix_factory\n"
            "def make(premium):\n"
            "    @register_matrix_factory('bad')\n"
            "    def factory():\n"
            "        return premium\n"
            "    return factory\n",
        )
        assert codes_of(result) == ["POOL001"]

    def test_primitive_args_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from repro.campaign.pool import MatrixSpec\n"
            "def build():\n"
            "    return MatrixSpec(factory='f', args=(3, 'ring'), kwargs=())\n",
        )
        assert result.ok

    def test_module_level_factory_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from repro.campaign.pool import register_matrix_factory\n"
            "@register_matrix_factory('good')\n"
            "def factory(n: int):\n"
            "    return n\n",
        )
        assert result.ok


# ----------------------------------------------------------------------
# DIG001
# ----------------------------------------------------------------------
class TestDigestCoverageRule:
    def test_field_missing_from_digest(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from dataclasses import dataclass\n"
            "from hashlib import sha256\n"
            "@dataclass\n"
            "class Spec:\n"
            "    kind: str\n"
            "    tol: float\n"
            "    def digest(self):\n"
            "        return sha256(self.kind.encode()).hexdigest()\n",
        )
        assert codes_of(result) == ["DIG001"]
        assert "Spec.tol" in result.findings[0].message

    def test_field_missing_from_to_json(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import json\n"
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Report:\n"
            "    scenarios: int\n"
            "    violations: list\n"
            "    def to_json(self):\n"
            "        return json.dumps({'scenarios': self.scenarios})\n",
        )
        assert codes_of(result) == ["DIG001"]
        assert "Report.violations" in result.findings[0].message

    def test_helper_method_fixpoint(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from dataclasses import dataclass\n"
            "from hashlib import sha256\n"
            "@dataclass\n"
            "class Spec:\n"
            "    kind: str\n"
            "    tol: float\n"
            "    def digest(self):\n"
            "        return sha256(self._payload().encode()).hexdigest()\n"
            "    def _payload(self):\n"
            "        return f'{self.kind}|{self.tol!r}'\n",
        )
        assert result.ok

    def test_annotation_bound_module_payload(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Result:\n"
            "    index: int\n"
            "    label: str\n"
            "def result_payload(result: Result) -> dict:\n"
            "    return {'index': result.index, 'label': result.label}\n",
        )
        assert result.ok

    CODEC_REPORT = (
        "import json\n"
        "from dataclasses import dataclass, field\n"
        "from repro import codec\n"
        "@dataclass\n"
        "class Report:\n"
        "    scenarios: int\n"
        "    rows: list\n"
        "    totals: dict = field(default_factory=dict{init})\n"
        "    def to_json(self):\n"
        "        return json.dumps({{'kind': 'r', **codec.encode({arg})}})\n"
    )

    def test_codec_encode_of_the_instance_serializes_every_field(self, tmp_path):
        source = self.CODEC_REPORT.format(init="", arg="self")
        assert lint_snippet(tmp_path, source).ok

    def test_codec_encode_skips_derived_init_false_fields(self, tmp_path):
        source = self.CODEC_REPORT.format(init=", init=False", arg="self")
        result = lint_snippet(tmp_path, source)
        assert codes_of(result) == ["DIG001"]
        assert "Report.totals" in result.findings[0].message

    def test_codec_encode_of_a_part_serializes_only_what_it_reads(self, tmp_path):
        source = self.CODEC_REPORT.format(init="", arg="self.rows")
        result = lint_snippet(tmp_path, source)
        assert codes_of(result) == ["DIG001", "DIG001"]
        flagged = " ".join(finding.message for finding in result.findings)
        assert "Report.scenarios" in flagged and "Report.totals" in flagged

    def test_allowlist_spares_experiment_spec_backend(self, tmp_path):
        # The canonical allowlist entries: digest() deliberately ignores
        # placement fields.  The real ExperimentSpec is linted clean in
        # the whole-tree smoke; here prove the allowlist is what does it.
        from repro.lint.rules.digestcov import DIGEST_EXCLUSIONS

        for key in ("ExperimentSpec.backend", "ExperimentSpec.workers",
                    "ExperimentSpec.expect"):
            assert key in DIGEST_EXCLUSIONS
            assert DIGEST_EXCLUSIONS[key]  # justification is non-empty

    def test_plain_dataclass_without_consumers_skipped(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Point:\n"
            "    x: int\n"
            "    y: int\n",
        )
        assert result.ok


# ----------------------------------------------------------------------
# DIG002
# ----------------------------------------------------------------------
class TestStaleExclusionRule:
    SPEC = (
        "from dataclasses import dataclass\n"
        "from hashlib import sha256\n"
        "@dataclass\n"
        "class ExperimentSpec:\n"
        "    kind: str\n"
        "    backend: str\n"
        "    def digest(self):\n"
        "        return sha256(self.kind.encode()).hexdigest()\n"
    )

    def test_stale_entry_flagged(self, tmp_path, monkeypatch):
        from repro.lint.rules import digestcov

        monkeypatch.setattr(
            digestcov,
            "DIGEST_EXCLUSIONS",
            {"ExperimentSpec.vanished": "justified a field that is gone"},
        )
        result = lint_snippet(tmp_path, self.SPEC, select=["DIG002"])
        assert codes_of(result) == ["DIG002"]
        assert "ExperimentSpec.vanished" in result.findings[0].message

    def test_live_entry_clean(self, tmp_path, monkeypatch):
        from repro.lint.rules import digestcov

        monkeypatch.setattr(
            digestcov,
            "DIGEST_EXCLUSIONS",
            {"ExperimentSpec.backend": "placement, not content"},
        )
        result = lint_snippet(tmp_path, self.SPEC, select=["DIG002"])
        assert result.ok

    def test_absent_class_skipped(self, tmp_path, monkeypatch):
        # Linting a directory that never declares the class (e.g. the
        # fixture tree) must not indict the shipped allowlist.
        from repro.lint.rules import digestcov

        monkeypatch.setattr(
            digestcov,
            "DIGEST_EXCLUSIONS",
            {"SomeOtherClass.field": "irrelevant here"},
        )
        result = lint_snippet(tmp_path, self.SPEC, select=["DIG002"])
        assert result.ok

    def test_shipped_allowlist_is_live(self):
        # The committed table itself must pass its own staleness check
        # against the shipped tree (also covered by the whole-tree
        # smoke, but pinned here so a rename fails with a clear name).
        result = lint_paths(
            [REPO_ROOT / "src" / "repro"], rules=all_rules(["DIG002"])
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)


# ----------------------------------------------------------------------
# committed seeded fixtures (what CI's lint job runs)
# ----------------------------------------------------------------------
class TestSeededFixtures:
    def test_every_family_fires(self):
        result = lint_paths([FIXTURES])
        found = set(codes_of(result))
        assert found == {
            "DET001",
            "DET002",
            "DET003",
            "POOL001",
            "DIG001",
            "FLOW001",
            "FLOW002",
            "FLOW003",
        }

    def test_fixture_suppressions_honored(self):
        result = lint_paths([FIXTURES])
        assert result.suppressed >= 5  # one suppressed case per family

    def test_seeded_quote_codes(self):
        """The quote-layer fixture: telemetry smuggled into a payload
        (DIG001) and a tier set hashed in iteration order (FLOW002)."""
        result = lint_paths([FIXTURES / "seeded_quote.py"])
        assert sorted(codes_of(result)) == ["DIG001", "FLOW002"]

    def test_cli_exits_nonzero_on_fixtures(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(FIXTURES), "--no-baseline"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "DET001" in proc.stdout


# ----------------------------------------------------------------------
# suppression / baseline machinery
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_and_matching(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n",
        )
        assert len(result.findings) == 1
        baseline = Baseline.from_findings(result.findings, "known debt")
        baseline_path = tmp_path / "baseline.json"
        baseline.save(baseline_path)

        reloaded = Baseline.load(baseline_path)
        again = lint_paths([tmp_path / "snippet.py"], baseline=reloaded)
        assert again.ok
        assert again.baselined == 1
        assert not again.stale_baseline

    def test_stale_entries_reported(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text("import time\ndef stamp():\n    return time.time()\n")
        result = lint_paths([path])
        baseline = Baseline.from_findings(result.findings, "to be fixed")

        path.write_text("def stamp():\n    return 0\n")  # debt paid
        again = lint_paths([path], baseline=baseline)
        assert again.ok
        assert len(again.stale_baseline) == 1

    def test_multiset_semantics(self, tmp_path):
        # Two identical findings on identical lines: a baseline holding
        # one acknowledges only one.
        path = tmp_path / "snippet.py"
        path.write_text(
            "import time\n"
            "def a():\n"
            "    return time.time()\n"
            "def b():\n"
            "    return time.time()\n"
        )
        result = lint_paths([path])
        assert len(result.findings) == 2
        baseline = Baseline.from_findings(result.findings[:1], "one only")
        again = lint_paths([path], baseline=baseline)
        assert len(again.findings) == 1
        assert again.baselined == 1

    def test_line_number_churn_does_not_invalidate(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text("import time\ndef stamp():\n    return time.time()\n")
        baseline = Baseline.from_findings(lint_paths([path]).findings, "debt")

        # Unrelated code added above: the finding moves lines but keeps
        # its fingerprint (code, path, line text).
        path.write_text(
            "import time\n\n\ndef other():\n    return 1\n\n\n"
            "def stamp():\n    return time.time()\n"
        )
        again = lint_paths([path], baseline=baseline)
        assert again.ok and again.baselined == 1

    def test_justification_required(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "code": "DET001", "path": "x.py",
                "line_text": "t = time.time()", "count": 1,
                "justification": "",
            }],
        }))
        with pytest.raises(LintError, match="justification"):
            Baseline.load(baseline_path)

    def test_version_checked(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(LintError, match="version"):
            Baseline.load(baseline_path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f():\n    return 1\n")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\ndef f():\n    return time.time()\n"
        )
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_exit_two_on_bad_rule_code(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "NOPE99"]) == 2
        # The retired scope heuristics have no alias: their codes are
        # as unknown as any other.
        for code in ("ORD001", "CANON001", "AUDIT001"):
            assert lint_main([str(tmp_path), "--select", code]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_exit_two_on_missing_path(self, capsys):
        assert lint_main(["definitely/not/here", "--no-baseline"]) == 2

    def test_select_restricts_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\ndef f():\n    return time.time()\n"
        )
        assert lint_main([str(tmp_path), "--select", "FLOW002"]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "DET001",
            "DET002",
            "DET003",
            "POOL001",
            "DIG001",
            "DIG002",
            "FLOW001",
            "FLOW002",
            "FLOW003",
        ):
            assert code in out
        for code in ("ORD001", "CANON001", "AUDIT001"):
            assert code not in out

    def test_write_baseline_then_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text(
            "import time\ndef f():\n    return time.time()\n"
        )
        assert lint_main(["bad.py", "--write-baseline"]) == 0
        assert Path("lint-baseline.json").exists()
        # The default baseline is picked up automatically.
        assert lint_main(["bad.py"]) == 0

    def test_syntax_error_reported_not_crashed(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        assert "LINT901" in capsys.readouterr().out

    def test_syntax_error_finding_is_deterministic(self, tmp_path, capsys):
        # The failure path is part of the contract: same broken file,
        # same finding text, across runs (CI diffs on it).
        (tmp_path / "broken.py").write_text("def f(:\n")
        outs = []
        for _ in range(2):
            assert lint_main([str(tmp_path), "--no-baseline"]) == 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_format_json_machine_readable(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\ndef f():\n    return time.time()\n"
        )
        assert (
            lint_main([str(tmp_path), "--no-baseline", "--format", "json"])
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        [finding] = payload["findings"]
        assert finding["code"] == "DET001"
        assert finding["line"] == 3
        assert finding["path"].endswith("bad.py")
        assert isinstance(finding["fingerprint"], list)
        # Non-flow findings carry an empty chain and a null source.
        assert finding["chain"] == []
        assert finding["source"] is None

    def test_format_json_carries_flow_chain(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import hashlib, time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"
            "def run_digest():\n"
            "    return hashlib.sha256(repr(stamp()).encode()).hexdigest()\n"
        )
        assert (
            lint_main([str(tmp_path), "--no-baseline", "--format", "json"])
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        [finding] = payload["findings"]
        assert finding["code"] == "FLOW001"
        assert finding["chain"] == ["mod.stamp", "mod.run_digest"]
        assert finding["source"]["line"] == 3

    def test_format_json_exit_zero_on_clean(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f():\n    return 1\n")
        assert (
            lint_main([str(tmp_path), "--no-baseline", "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["findings"] == []


# ----------------------------------------------------------------------
# suppression placement on hard statement shapes
# ----------------------------------------------------------------------
class TestSuppressionPlacement:
    def test_multi_line_statement_any_line_works(self, tmp_path):
        # The flagged call opens on one line, the disable marker sits on
        # the closing line — the statement's span carries it.
        result = lint_snippet(
            tmp_path,
            "import time\n"
            "def stamp():\n"
            "    return time.time(\n"
            "    )  # lint: disable=DET001\n",
        )
        assert result.ok
        assert result.suppressed == 1

    def test_decorated_statement_marker_on_def_line(self, tmp_path):
        # POOL001 anchors at the decorator; the marker on the def line
        # still falls inside the decorated statement's header span.
        result = lint_snippet(
            tmp_path,
            "from repro.campaign.pool import register_matrix_factory\n"
            "def make(premium):\n"
            "    @register_matrix_factory('bad')\n"
            "    def factory():  # lint: disable=POOL001\n"
            "        return premium\n"
            "    return factory\n",
        )
        assert result.ok
        assert result.suppressed == 1

    def test_marker_in_body_does_not_mute_header_finding(self, tmp_path):
        # A disable inside the function *body* must not reach a finding
        # anchored on the decorator/header.
        result = lint_snippet(
            tmp_path,
            "from repro.campaign.pool import register_matrix_factory\n"
            "def make(premium):\n"
            "    @register_matrix_factory('bad')\n"
            "    def factory():\n"
            "        return premium  # lint: disable=POOL001\n"
            "    return factory\n",
        )
        assert codes_of(result) == ["POOL001"]


# ----------------------------------------------------------------------
# whole-tree smoke: the CI gate's exact assertion
# ----------------------------------------------------------------------
class TestWholeTree:
    def test_src_repro_clean_modulo_committed_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        result = lint_paths([REPO_ROOT / "src" / "repro"], baseline=baseline)
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert not result.stale_baseline

    def test_finding_order_deterministic(self):
        first = lint_paths([FIXTURES])
        second = lint_paths([FIXTURES])
        assert [f.render() for f in first.findings] == [
            f.render() for f in second.findings
        ]

    def test_overlapping_paths_lint_each_file_once(self):
        # A file named both directly and through its directory is
        # linted once, at its first position.
        alone = lint_paths([FIXTURES])
        overlapping = lint_paths([FIXTURES, FIXTURES / "seeded_det.py"])
        assert overlapping.files == alone.files
        assert [f.render() for f in overlapping.findings] == [
            f.render() for f in alone.findings
        ]
        files = discover_files([FIXTURES / "seeded_det.py", FIXTURES])
        assert len(files) == len(set(files)) == alone.files
        assert files[0] == FIXTURES / "seeded_det.py"

    def test_rule_registry_complete(self):
        assert rule_codes() == (
            "DET001",
            "DET002",
            "DET003",
            "DIG001",
            "DIG002",
            "FLOW001",
            "FLOW002",
            "FLOW003",
            "POOL001",
        )

    def test_source_file_parses_own_package(self):
        # The linter lints itself: parsing every module of repro.lint
        # through SourceFile exercises alias collection and parent links.
        for path in sorted((REPO_ROOT / "src" / "repro" / "lint").rglob("*.py")):
            src = SourceFile.load(path, REPO_ROOT)
            assert src.tree is not None
