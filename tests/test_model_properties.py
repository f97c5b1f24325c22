"""Property checks of model files: every model of every family round-trips.

``write_model`` writes a model's family, its ON wattage and each of its
fields; ``read_model`` must give back an equal model and wattage, for
float probabilities anywhere in their range, durations from 1 to the
longest a pmf holds, and weights normalised to sum to 1.
"""

from __future__ import annotations

import math
import os
import tempfile

import pytest

from loadcap.fileio import read_model, write_model
from loadcap.models import AlternatingRenewal, Bernoulli, DurationPmf, TwoStateMarkov

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

inside = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def duration_pmfs(draw) -> DurationPmf:
    durations = draw(
        st.lists(
            st.integers(min_value=1, max_value=DurationPmf.max_duration),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    size = len(durations)
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=size, max_size=size))
    total = math.fsum(raw)
    return DurationPmf(tuple(zip(durations, (w / total for w in raw))))


models = st.one_of(
    st.builds(Bernoulli, p_on=st.floats(min_value=0.0, max_value=1.0)),
    st.builds(TwoStateMarkov, p_off_to_on=inside, p_on_to_off=inside),
    st.builds(AlternatingRenewal, on_durations=duration_pmfs(), off_durations=duration_pmfs()),
)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(model=models, on_power=st.floats(min_value=1e-300, max_value=1e300))
def test_model_files_round_trip_every_family(model, on_power: float) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        write_model(path, model, on_power)
        assert read_model(path) == (model, on_power)
