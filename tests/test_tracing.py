"""The benchmark tracer rebinds krflow names from outside the package.

``perfbench/tracing.py`` looks those names up by attribute, so renaming or
deleting one breaks the benchmark; these tests catch that in tier-1.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def test_install_rebinds_every_name_and_uninstall_restores_it(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rebound = list(tracer._undo)
        assert rebound
        for owner, attr, original in rebound:
            assert _current(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in rebound:
        assert _current(owner, attr) is original, attr
