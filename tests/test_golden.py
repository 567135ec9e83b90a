"""Golden digest: a pinned small campaign reproduces its artefacts byte for byte.

Refactors that claim "same behaviour" prove it here.  If a change moves
floating-point bits on purpose, it must say why and record the new digest.
"""

import hashlib
import os

from roundabout_sim.cli import run_campaign
from roundabout_sim.config import ExperimentConfig

# default config, seed 42, 4 runs per row, traces on
GOLDEN_SHA256 = "023a2a99b122e7ac59e046b3bd553c2e4cf167f4cd7bcc5f83c6491d077d7c09"


def artefact_digest(out_dir):
    """sha256 over summary.csv and every trace, in sorted relative-path order."""
    rels = ["summary.csv"]
    for root, _, names in os.walk(os.path.join(out_dir, "traces")):
        rels += [os.path.relpath(os.path.join(root, n), out_dir) for n in names]
    h = hashlib.sha256()
    for rel in sorted(rels):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(out_dir, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def test_pinned_campaign_digest(tmp_path):
    _, errors = run_campaign(ExperimentConfig(), str(tmp_path), traces=True, jobs=1,
                             flag_seed=42, flag_runs=4, env={})
    assert errors == []
    assert artefact_digest(str(tmp_path)) == GOLDEN_SHA256
