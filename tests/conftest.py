import sys

import pytest

import shiftkms


def clear_package_memos():
    """Empty every cache_clear memo of the package (the loop perfbench runs
    between replays)."""
    for name, module in list(sys.modules.items()):
        if name == shiftkms.__name__ or name.startswith(shiftkms.__name__ + "."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Start each test with empty memos, so what a test counts (SCC passes,
    solves, closures) does not depend on the tests that ran before it."""
    clear_package_memos()
