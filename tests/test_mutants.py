"""Every edit in `tests/mutants.py` still finds its text.

The mutation script stops before any run on an edit whose `old` text does
not occur exactly once, but it runs only in a CI job of its own; this test
makes a stale edit fail Tier-1.  It reads the checkout's `src` through the script's
`ROOT`, not the imported `mtnlu`, so a mutant run, which imports a mutated
copy, is not killed by this test alone.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mtnlu_mutants", Path(__file__).resolve().parent / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_edit_occurs_exactly_once():
    assert mutants.stale_edits() == []
    assert mutants.MUTANTS
