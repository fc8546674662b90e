"""The package's public names resolve."""

import pytest

from oamwalk import cli, compiler, continuum, optics, walk


@pytest.mark.parametrize("module", [walk, optics, compiler, cli, continuum], ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    """A stale ``__all__`` entry otherwise fails only on ``from module import *``."""
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
