import pytest

from mcrl import autodiff as ad


@pytest.fixture
def nodes_built(monkeypatch):
    """``nodes_built(fn)`` runs ``fn`` and returns the ``op`` of each Node it built, in order."""
    def run(fn):
        made = []
        real_init = ad.Node.__init__

        def recording_init(node, op, *args, **kwargs):
            made.append(op)
            real_init(node, op, *args, **kwargs)

        monkeypatch.setattr(ad.Node, "__init__", recording_init)
        try:
            fn()
        finally:
            monkeypatch.setattr(ad.Node, "__init__", real_init)
        return made

    return run
