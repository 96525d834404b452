"""Shipped rule families.  Importing this package registers every rule.

One module per family; each rule documents the hazard it guards, the
constructs it flags, and the blessed alternative.  Codes:

==========  ==========================================================
``DET001``  nondeterministic call (clock/uuid/OS entropy/``id()``)
``DET002``  unseeded random-number generator
``DET003``  telemetry read back inside digest-producing code
``POOL001``  unpicklable callable crossing the worker boundary
``DIG001``  dataclass field invisible to ``digest()``/``to_json()``
``DIG002``  stale ``DIGEST_EXCLUSIONS`` allowlist entry
``FLOW001``  nondeterministic value flows into a digest sink
``FLOW002``  iteration-order-unstable value flows into a digest sink
``FLOW003``  lossy float text flows into a digest sink
==========  ==========================================================
"""

from repro.lint.rules import (  # noqa: F401  (import = registration)
    determinism,
    digestcov,
    pool,
)

# The flow package imports the DET and DIG rule tables above, so it
# registers last — after every per-file family is importable.
from repro.lint.flow import rules as _flow_rules  # noqa: F401,E402
