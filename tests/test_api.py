import types

import ontominer


def test_public_api_is_consistent():
    """Every exported name resolves, and every public name the package
    imports is exported, so a deletion leaves no stale export behind."""
    missing = [n for n in ontominer.__all__ if not hasattr(ontominer, n)]
    assert missing == []
    imported = {name for name, value in vars(ontominer).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert imported == set(ontominer.__all__)
