"""Property check of the library's input rules over an edge set of wrong values.

Any number of an entry point's arguments may be wrong at once: the call
still raises only a ValueError, and its message names one of the wrong
arguments; never an AttributeError, a TypeError from an operator, an
OverflowError, or a result built from a coerced value.  The entry points
and their wrong values are ``test_input_rules.ENTRY_POINTS``.
"""

from __future__ import annotations

import pytest

from test_input_rules import ENTRY_POINTS, refusal

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def wrong_calls(draw) -> tuple[str, dict, set[str]]:
    entry = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    arguments = ENTRY_POINTS[entry][1]
    chosen = draw(st.sets(st.sampled_from(sorted(arguments)), min_size=1))
    wrong = {name: draw(st.sampled_from(arguments[name][1])) for name in chosen}
    return entry, wrong, {arguments[name][0] for name in chosen}


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(wrong_calls())
def test_only_a_value_error_naming_a_wrong_argument_escapes(case) -> None:
    entry, wrong, labels = case
    message = refusal(entry, wrong)
    assert any(message.startswith(f"{label}=") for label in labels), (entry, wrong, message)
