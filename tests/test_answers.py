"""The committed answers corpus (``tests/answers.json``) is still what the
library computes: sized counts, region digests and run counts exactly,
estimates within 1e-12 relative, so every supported Python and libm agree.

``tests/make_answers.py`` writes the corpus and says when to regenerate it.
"""

from __future__ import annotations

import json
import math

import pytest

import make_answers

with open(make_answers.PATH, encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)


@pytest.fixture(scope="module")
def computed() -> dict[str, list[dict]]:
    return make_answers.compute()


@pytest.mark.parametrize("section", ["sizing", "regions", "runs"])
def test_answers_match_the_corpus(computed, section: str) -> None:
    recorded, got = RECORDED[section], computed[section]
    assert len(got) == len(recorded)
    for want, row in zip(recorded, got):
        assert row.keys() == want.keys()
        for key, value in want.items():
            if key == "estimate":
                assert math.isclose(row[key], value, rel_tol=1e-12, abs_tol=0.0), (want, row)
            else:
                assert row[key] == value, (key, want, row)


def test_the_corpus_covers_each_family_method_and_path() -> None:
    sizing = RECORDED["sizing"]
    assert {r["family"] for r in sizing} == set(make_answers.MODELS)
    assert {r["method"] for r in sizing} == {m.value for m in make_answers.EstimationMethod}
    # sizes at 0, at the population and in between all occur
    assert {0 < r["sized"] < r["count"] for r in sizing} == {True, False}
    assert any(r["sized"] == 0 for r in sizing) and any(r["sized"] == r["count"] for r in sizing)
    assert {r["seed"] for r in RECORDED["runs"]} == set(make_answers.SEEDS)
