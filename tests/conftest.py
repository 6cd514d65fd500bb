"""Settings for the tests under tests/: a file or socket that a test leaves
unclosed fails it.

CPython reports an unclosed file as a ResourceWarning from the file's
finalizer, which pytest then reports as a PytestUnraisableExceptionWarning;
both are errors here.  perfbench/ keeps its own settings.
"""

import pathlib

import pytest

_HERE = pathlib.Path(__file__).parent
_GATES = ("error::ResourceWarning",
          "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            for gate in _GATES:
                item.add_marker(pytest.mark.filterwarnings(gate))
