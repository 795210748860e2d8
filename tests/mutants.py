"""Mutation check: does Tier-1 notice when a known line of `src` changes?

    python3 tests/mutants.py

Each mutant below is one text edit to one file under `src/mtnlu`.  For each,
the script copies `src` to a temporary directory, applies the edit there and
runs the Tier-1 command with `-x` from the repository root, with PYTHONPATH
set to the copy.  A failing run kills the mutant; a passing one lets it
survive.  The checkout itself is never edited.  The script exits 0 when every
mutant is killed, and 1 otherwise.

Pytest does not collect this file (its name does not match `test_*.py`).
CI runs it in a job of its own, beside Tier-1's, because each mutant costs
up to one Tier-1 run.  An edit whose `old` text does not occur exactly once
stops the script before any run, and fails `tests/test_mutants.py` in
Tier-1, so a mutant cannot go stale unnoticed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SOURCE = '''\
    "source": (lambda c: c.source_corpus, "a source_corpus", lambda c, loaded: _nonempty(
        "corpus has no utterances", load_corpus, c.source_corpus)),
'''
_TEST = '''\
    "test": (lambda c: c.test_corpus, "a test_corpus", lambda c, loaded: _nonempty(
        "corpus has no utterances", load_corpus, c.test_corpus)),
'''

# (file under src/mtnlu, old text, new text)
MUTANTS = [
    ("nlu/optim.py", "alpha *= 0.5", "alpha *= 0.7"),
    ("nlu/optim.py", "_HISTORY = 10", "_HISTORY = 5"),
    ("nlu/optim.py", "_ARMIJO_C = 1e-4", "_ARMIJO_C = 0.0"),
    ("nlu/optim.py", "_MAX_BACKTRACKS = 60", "_MAX_BACKTRACKS = 30"),
    ("filtering.py", "s.value.lower()", "s.value"),
    # a round trip whose confidence equals the threshold is dropped
    ("filtering.py", "back_posteriors.get(ref_intent, 0.0) < config.confidence_threshold",
     "back_posteriors.get(ref_intent, 0.0) <= config.confidence_threshold"),
    ("nlu/crf.py", "scale[t] >= _TINY", "scale[t] > 0"),
    # a repeated feature id counts once in the numpy design's products
    ("nlu/modelio.py", "column[self.cols] * self.count", "column[self.cols]"),
    # small designs are scipy's CSR matrix and large ones numpy's
    ("nlu/modelio.py", "len(cols) < _CSR_MIN_ENTRIES", "len(cols) >= _CSR_MIN_ENTRIES"),
    # a small design stays numpy's after a large one has imported scipy
    ("nlu/modelio.py", 'and "scipy.sparse" not in sys.modules', ""),
    ("translate.py", "hyp.target + tgt < kept.target", "hyp.target + tgt > kept.target"),
    ("translate.py", "score > kept.score", "score >= kept.score"),
    # two run inputs loaded in the other order
    ("pipeline.py", _SOURCE + _TEST, _TEST + _SOURCE),
    # the catalogs loader no longer checks the resampled slot types
    ("pipeline.py",
     '    if "postprocess" in config.stages:\n'
     "        check_resample_catalogs(config.postprocess.resample_slots, catalogs)\n", ""),
    # the models are released after their last reader like every other input
    ("pipeline.py", '_INPUTS.keys() - {"models"} - later_reads', "_INPUTS.keys() - later_reads"),
    # filter-semantic projects the corpus again after the project stage did
    ("pipeline.py", '"project" in config.stages', "False"),
    # post-processing draws from the run seed instead of its stage's seed
    ("pipeline.py", 'stage_seed(config.seed, "postprocess")', "config.seed"),
    # the pipeline tries hashlib's SHA-256 first, which loads OpenSSL
    ("pipeline.py", "from _sha2 import sha256", "from hashlib import sha256"),
    # retention reads the translated utterance instead of its source
    ("postprocess.py", "_retained(u, sources[u.id], retain, stats)", "_retained(u, u, retain, stats)"),
    # the readers split tokens without interning them
    ("corpus.py", "return tuple(map(sys.intern, text.split()))", "return tuple(text.split())"),
    # catalog entries keep the token strings they are given
    ("corpus.py",
     '        object.__setattr__(self, "tokens", tuple(map(sys.intern, self.tokens)))\n', ""),
    # a slot with an empty type is read as plain tokens
    ("corpus.py", "        if slot_type is not None:\n", "        if slot_type:\n"),
    # a character that starts neither a slot nor a token is skipped
    ("corpus.py", r'|(\S)")', r'|(\Z\S)")'),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-x", "-p", "no:cacheprovider"]


def stale_edits() -> list[str]:
    """One line for each edit whose `old` text does not occur exactly once in
    the checkout's `src`."""
    stale = []
    for name, old, _ in MUTANTS:
        count = (ROOT / "src" / "mtnlu" / name).read_text(encoding="utf-8").count(old)
        if count != 1:
            stale.append("%s: the text to mutate occurs %d times, not once: %r"
                         % (name, count, old))
    return stale


def survives(name: str, old: str, new: str) -> bool:
    with tempfile.TemporaryDirectory(prefix="mtnlu-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "mtnlu" / name
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run(TIER1, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        return run.returncode == 0


def _short(text: str) -> str:
    lines = text.strip().splitlines() or [""]
    return lines[0] + (" ..." if len(lines) > 1 else "")


def main() -> int:
    stale = stale_edits()
    if stale:
        sys.exit("\n".join(stale))
    survivors = 0
    for name, old, new in MUTANTS:
        started = time.perf_counter()
        survived = survives(name, old, new)
        survivors += survived
        print("%-8s %5.1fs  %s: %r -> %r" % ("survived" if survived else "killed",
                                            time.perf_counter() - started, name,
                                            _short(old), _short(new)), flush=True)
    print("killed %d of %d" % (len(MUTANTS) - survivors, len(MUTANTS)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
