"""One spec, one entry point: the declarative experiment workflow.

Every engine in the repro — the adversarial campaign, the rational-
adversary ablation lattice, the bisected frontier refinement — runs from
the same JSON-serializable, digest-covered ``ExperimentSpec``.  This
example shows the full loop:

- build a spec (the same object ``python -m repro.cli spec ablate ...``
  emits), round-trip it through JSON, and read its identity digest,
- run it cold through the ``Experiment`` facade with the incremental
  result cache attached, collecting reports that all speak the common
  Report protocol (``kind`` + ``digest`` + ``to_json``/``from_json``),
- run it warm: every already-verified scenario block is served from the
  store — the hit-rate is 100% and the digests are byte-identical, which
  is what makes 10^5+-scenario matrices re-runnable after small edits,
- swap the ``engine``: ablation specs default to the payoff
  kernels (``engine="kernel"``); ``engine="simulator"`` replays the same
  scenarios through the full simulator — the audit path CI holds the
  kernels to — and reproduces every digest byte-identically,
- pin the digests into the spec's ``expect`` block, turning the spec into
  a self-verifying, shippable artifact (this is what a multi-host driver
  would send to each worker).

Run with:  python examples/experiment_spec.py
"""

import tempfile
from dataclasses import replace

from repro.campaign import (
    Experiment,
    ExperimentSpec,
    ResultCache,
    ablate_spec,
    report_from_json,
)


def main() -> None:
    print("=== the spec: a serializable, digest-covered experiment ===")
    spec = ablate_spec(
        families=("two-party", "broker"),
        premium_fractions=(0.0, 0.02, 0.05),
        shock_fractions=(0.045,),
        stages=("staked",),
    )
    restored = ExperimentSpec.from_json(spec.to_json())
    assert restored == spec and restored.digest() == spec.digest()
    print(f"kind:   {spec.kind}")
    print(f"matrix: factory={spec.matrix.factory!r} "
          f"({len(dict(spec.matrix.kwargs))} grid knobs)")
    print(f"digest: {spec.digest()}")
    print("the digest covers only what determines results — a pooled or")
    print("sharded-execution variant of this spec shares the identity.")
    print()

    print("=== cold run: facade dispatch + cache population ===")
    store = ResultCache(tempfile.mkdtemp(prefix="repro-spec-cache-"))
    cold = Experiment(spec, cache=store).run()
    print(cold.campaign.summary())
    print(cold.frontier.summary())
    print(f"frontier digest: {cold.frontier.digest}")
    print()

    print("=== warm run: served from the incremental result cache ===")
    warm = Experiment(spec, cache=store).run()
    assert warm.campaign.run_digest == cold.campaign.run_digest
    assert warm.frontier.digest == cold.frontier.digest
    print(warm.campaign.summary())
    print(f"hit-rate {warm.campaign.cache_hit_rate:.0%} "
          f"({warm.campaign.cache_hits}/{warm.campaign.scenarios}), "
          "digests byte-identical")
    print()

    print("=== the kernel engine vs the simulator audit path ===")
    assert spec.engine == "kernel"  # ablation specs default to the kernels
    audit = Experiment(replace(spec, engine="simulator")).run()
    assert audit.campaign.run_digest == cold.campaign.run_digest
    assert audit.frontier.digest == cold.frontier.digest
    print("the full simulator reproduced the kernel engine's digests")
    print("byte-identically — the parity CI enforces this on every push.")
    print()

    print("=== the common Report protocol ===")
    for report in warm.reports:
        restored = report_from_json(report.to_json())
        assert restored.digest == report.digest
        print(f"  kind={type(report).kind:<10} digest={report.digest[:16]}… "
              "(JSON round-trip verified)")
    print()

    print("=== a self-verifying spec: pin the expected digests ===")
    pinned = replace(
        spec,
        expect=(
            ("campaign", cold.campaign.run_digest),
            ("frontier", cold.frontier.digest),
        ),
    )
    Experiment(pinned, cache=store).run()  # raises on any digest mismatch
    assert pinned.digest() == spec.digest()  # expectations are not identity
    print("re-run under pinned expectations passed — this spec file is now")
    print("a replayable, self-checking experiment artifact.")


if __name__ == "__main__":
    main()
