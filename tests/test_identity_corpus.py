import json
import os

import identity_corpus

COMMITTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "identity_corpus.json")


def test_the_identity_corpus_decodes_and_splits_as_committed():
    digest = identity_corpus.build()
    # every worker count, and every fork refused, writes the 1-worker samples
    for name, entry in digest["encode"].items():
        for variant in identity_corpus.VARIANTS:
            assert entry.get(f"{variant}-sha256", entry["sha256"]) == entry["sha256"], (name, variant)
    with open(COMMITTED) as f:
        assert identity_corpus.stable(digest) == json.load(f)
