"""Properties of the one-pass feed codec.

* Round trip: for random rows (escape characters, non-ASCII text,
  ``\\r``, NULL and eid-0 parents, with and without a sequence number)
  the codec writes exactly the tree-serialized reference bytes and
  decodes them back to equal rows.
* Fuzz: real feed messages mutated by substitution, insertion and
  truncation only ever fail with a typed ``SoapFault``, and a
  single-byte substitution inside the row region is always rejected.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SoapFault
from repro.core.fragment import Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.net.soap import (
    unwrap_fragment_feed,
    verify_feed_message,
    wrap_fragment_feed,
)
from repro.workloads.customer import (
    customer_schema,
    fragment_customers,
    generate_customer_instances,
    s_fragmentation,
)

from tests.net.feed_reference import reference_feed_message

_SCHEMA = customer_schema()
_FRAGMENT = Fragment(_SCHEMA, ["Order"])

_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,8}", fullmatch=True)
_attr_names = _names.filter(lambda name: name not in {"_eid", "ID",
                                                      "PARENT"})
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",))
    | st.sampled_from("&<>\"'\r\n\t é中"),
    max_size=12,
)
_eids = st.integers(min_value=-3, max_value=10**9)


@st.composite
def _elements(draw, depth=2):
    data = ElementData(
        draw(_names), draw(_eids),
        draw(st.dictionaries(_attr_names, _text, max_size=3)),
        draw(_text),
    )
    if depth:
        for child in draw(st.lists(_elements(depth=depth - 1),
                                   max_size=3)):
            data.add_child(child)
    return data


_rows = st.lists(
    st.builds(FragmentRow, _elements(),
              st.none() | st.just(0) | _eids),
    max_size=4,
)
_seqs = st.none() | st.integers(min_value=0, max_value=10**6)


@settings(max_examples=150, deadline=None)
@given(_rows, _seqs)
def test_codec_matches_reference_and_round_trips(rows, seq):
    instance = FragmentInstance(_FRAGMENT, rows)
    message = wrap_fragment_feed(instance, seq)
    assert message == reference_feed_message(instance, seq)
    received = unwrap_fragment_feed(message, _FRAGMENT)
    assert received.rows == instance.rows
    header, count, digest = verify_feed_message(message)
    assert (header.seq, count, digest) \
        == (seq, len(rows), header.checksum)


def _real_feeds() -> list[tuple[str, Fragment]]:
    """(message, fragment) for two real customer feeds."""
    feeds = fragment_customers(generate_customer_instances(3, seed=7),
                               s_fragmentation(_SCHEMA))
    return [
        (wrap_fragment_feed(feeds["Line_Feature"]),
         feeds["Line_Feature"].fragment),
        (wrap_fragment_feed(feeds["Order"], seq=4),
         feeds["Order"].fragment),
    ]


_FEEDS = _real_feeds()
_chars = st.characters(blacklist_categories=("Cs",)) \
    | st.sampled_from("<>/=\"& 0123456789_")


def _receivers(message: str, fragment: Fragment):
    return (lambda: unwrap_fragment_feed(message, fragment),
            lambda: verify_feed_message(message))


def _row_region(message: str) -> tuple[int, int]:
    start = message.index(">", message.index("<FragmentFeed")) + 1
    return start, message.index("</FragmentFeed>")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1), st.data())
def test_mutated_messages_fail_typed(index, data):
    message, fragment = _FEEDS[index]
    kind = data.draw(st.sampled_from(["substitute", "insert",
                                      "truncate"]))
    position = data.draw(st.integers(0, len(message) - 1))
    if kind == "truncate":
        mutated = message[:position]
    else:
        char = data.draw(_chars)
        skip = 1 if kind == "substitute" else 0
        mutated = message[:position] + char + message[position + skip:]
    for receive in _receivers(mutated, fragment):
        try:
            receive()
        except SoapFault:
            pass


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1), st.data())
def test_row_region_substitution_always_rejected(index, data):
    message, fragment = _FEEDS[index]
    start, end = _row_region(message)
    position = data.draw(st.integers(start, end - 1))
    char = data.draw(st.characters(min_codepoint=0, max_codepoint=127))
    assume(char != message[position])
    mutated = message[:position] + char + message[position + 1:]
    for receive in _receivers(mutated, fragment):
        try:
            receive()
        except SoapFault:
            continue
        raise AssertionError(
            f"substituting {char!r} at {position} was accepted"
        )
