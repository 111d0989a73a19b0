"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. in a fully offline environment where ``pip install -e .`` cannot
resolve build dependencies).  When the package *is* installed this is a
harmless no-op because the installed location takes precedence only if it
differs, and both point at the same source tree for an editable install.
"""

import os
import sys

from hypothesis import settings

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# CI selects this with ``--hypothesis-profile=ci``: the property tests —
# above all the indexed-decision-vs-oracle state machine — run deep, and
# derandomised so a red build reproduces on the next push and on a laptop.
# A test's own ``max_examples`` still wins; local runs keep the default.
settings.register_profile("ci", max_examples=500, derandomize=True, deadline=None)


def pytest_addoption(parser):
    # Registered here (options must live in the rootdir conftest); the
    # snapshot itself is written by benchmarks/conftest.py, so the flag
    # only has an effect when the benchmark suite is part of the run.
    group = parser.getgroup("liferaft-bench")
    group.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "write a compact benchmark snapshot (per-benchmark best timing "
            "plus headline metrics) to PATH; compare two snapshots with "
            "`python -m benchmarks.ratchet`"
        ),
    )
