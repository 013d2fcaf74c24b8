"""SOAP 1.1 envelopes for fragment feeds and documents.

Fragment feeds are shipped as a sequence of fragment-instance documents
inside one SOAP body.  The wire format preserves element ids (a ``_eid``
attribute on every element) exactly as a sorted-feed shipment carries
its keys/foreign keys in the paper's setting; ``ID``/``PARENT`` appear
on fragment roots per Definition 3.1.

Every feed message additionally carries an Adler-32 ``checksum`` of its
row content and, for chunked streaming transfers, a ``seq`` number —
the receiver verifies the checksum (corruption in flight surfaces as a
:class:`~repro.errors.SoapFault` instead of silently wrong data) and
the sequence numbers let the reliable shipping layer de-duplicate and
re-order deliveries (see :mod:`repro.net.faults`).

Feeds are the hot path of every data exchange, so they have their own
one-pass codec.  :func:`wrap_fragment_feed` writes each row's wire
string once, straight from :class:`~repro.core.instance.ElementData`,
and hashes those same strings.  :func:`unwrap_fragment_feed` and
:func:`verify_feed_message` tokenize the feed body with compiled
patterns, check the checksum over the *received* row text before
interpreting any of it, and only then build rows.  Neither side builds
an :class:`~repro.xmlkit.tree.Element` tree.  The bytes are exactly
those of serializing the equivalent tree (:func:`feed_digest` and
:func:`verify_fragment_feed` keep that tree-based reference
definition), and row text round-trips exactly, surrounding whitespace
included.  Every defect in a feed message — malformed markup, a
non-integer key, count or sequence number, a checksum or count
mismatch — raises :class:`~repro.errors.SoapFault`.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass

from repro.errors import ReproError, SoapFault
from repro.core.fragment import ID_ATTR, PARENT_ATTR, Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.xmlkit.escape import escape_attr, escape_text, unescape
from repro.xmlkit.tree import Element, parse_tree
from repro.xmlkit.writer import serialize

ENVELOPE_NS = "http://schemas.xmlsoap.org/soap/envelope/"
_EID_ATTR = "_eid"
CHECKSUM_ATTR = "checksum"
SEQ_ATTR = "seq"


def soap_envelope(body: Element) -> str:
    """Wrap ``body`` in a SOAP 1.1 envelope and serialize."""
    envelope = Element(
        "soap:Envelope", {"xmlns:soap": ENVELOPE_NS}
    )
    envelope.append(Element("soap:Body")).append(body)
    return serialize(envelope, indent=None)


def soap_fault(message: str, code: str = "soap:Server") -> str:
    """A serialized SOAP 1.1 Fault envelope (a service-side error).

    Receivers reply with one of these when a request fails
    verification; :func:`parse_envelope` on the other side raises the
    carried message as a :class:`~repro.errors.SoapFault`.
    """
    fault = Element("soap:Fault")
    fault.append(Element("faultcode", text=code))
    fault.append(Element("faultstring", text=message))
    return soap_envelope(fault)


def _fault_message(payload: Element) -> str:
    """Extract the human-readable message from a ``Fault`` payload.

    Real-world faults nest: the ``detail`` element may itself carry a
    ``Fault`` from a downstream hop.  The innermost ``faultstring``
    wins — it names the root cause — with outer strings appended for
    context.
    """
    strings: list[str] = []
    node: Element | None = payload
    while node is not None:
        fault_string = node.child("faultstring")
        if fault_string is not None and fault_string.text:
            strings.append(fault_string.text)
        detail = node.child("detail")
        node = detail.child("Fault") if detail is not None else None
    if not strings:
        return "fault"
    # Innermost first: it is the root cause.
    return ": ".join(reversed(strings))


def parse_envelope(text: str) -> Element:
    """Parse a SOAP envelope and return the single body child.

    Raises:
        SoapFault: if the message is not a well-formed SOAP envelope,
            the body does not carry exactly one element, or it carries
            a ``Fault`` (whose ``faultstring`` — innermost, for nested
            faults — becomes the raised message).
    """
    try:
        root = parse_tree(text)
    except Exception as exc:
        raise SoapFault(f"message is not well-formed XML: {exc}") from exc
    if root.local_name() != "Envelope":
        raise SoapFault(f"not a SOAP envelope: <{root.name}>")
    body = next(
        (child for child in root.children
         if child.local_name() == "Body"),
        None,
    )
    if body is None or len(body.children) != 1:
        raise SoapFault("SOAP body must contain exactly one element")
    payload = body.children[0]
    if payload.local_name() == "Fault":
        raise SoapFault(_fault_message(payload))
    return payload


def _integer(value: str, what: str) -> int:
    """``int(value)``, with a malformed value raised as a SoapFault."""
    try:
        return int(value)
    except ValueError:
        raise SoapFault(f"{what} must be an integer, got {value!r}") \
            from None


def feed_digest(rows: list[Element]) -> str:
    """Adler-32 digest over the canonical serialization of wire rows.

    This is the checksum's reference definition: each row serialized
    compactly, with its own ``<?xml version="1.0"?>`` declaration.
    The feed codec computes the same digest from the row strings it
    writes or receives, without building or serializing any tree.
    """
    blob = "".join(serialize(row, indent=None) for row in rows)
    return _adler(blob)


def _adler(blob: str) -> str:
    return format(zlib.adler32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


def wrap_document(text: str) -> str:
    """Serialize a whole published document as one SOAP message
    (publish&map ships the tagged document monolithically).  The
    document travels as escaped character data with its byte count
    declared for receiver-side verification."""
    return soap_envelope(
        Element("Document", {"bytes": str(len(text))}, text=text)
    )


def unwrap_document(payload: Element) -> str:
    """Extract the document text from a ``Document`` payload.

    Raises:
        SoapFault: on a wrong payload or a byte-count mismatch.
    """
    if payload.local_name() != "Document":
        raise SoapFault(f"expected a Document, got <{payload.name}>")
    text = payload.text
    declared = payload.get("bytes")
    if declared is not None \
            and _integer(declared, "document bytes") != len(text):
        raise SoapFault(
            f"document declares {declared} bytes but carries "
            f"{len(text)}"
        )
    return text


def verify_fragment_feed(payload: Element) -> tuple[str, int, str]:
    """Structural verification of a parsed ``FragmentFeed`` element.

    The tree-based reference for :func:`verify_feed_message`: it checks
    payload kind, declared row count, and the Adler-32 content
    checksum re-serialized from the parsed rows.  Returns ``(fragment
    name, row count, recomputed digest)``.

    Raises:
        SoapFault: on a wrong payload kind, a missing fragment name, a
            count mismatch, or a checksum mismatch.
    """
    if payload.local_name() != "FragmentFeed":
        raise SoapFault(
            f"expected a FragmentFeed, got <{payload.name}>"
        )
    name = payload.get("fragment")
    if not name:
        raise SoapFault("feed names no fragment")
    digest = feed_digest(payload.children)
    declared_digest = payload.get(CHECKSUM_ATTR)
    if declared_digest is not None and declared_digest != digest:
        raise SoapFault(
            f"feed of fragment {name!r} failed its checksum "
            "(message corrupted in flight)"
        )
    declared_count = payload.get("count")
    if declared_count is not None \
            and _integer(declared_count, "feed count") \
            != len(payload.children):
        raise SoapFault(
            f"feed declares {declared_count} rows but carries "
            f"{len(payload.children)}"
        )
    return name, len(payload.children), digest


# -- the one-pass feed codec ---------------------------------------------------

_DECLARATION = '<?xml version="1.0"?>'
_FEED_OPEN = (
    f'{_DECLARATION}<soap:Envelope xmlns:soap="{escape_attr(ENVELOPE_NS)}">'
    "<soap:Body><FragmentFeed"
)
_FEED_CLOSE = "</FragmentFeed></soap:Body></soap:Envelope>"
_EMPTY_FEED_CLOSE = "/></soap:Body></soap:Envelope>"

_NAME = r"[A-Za-z_:][-A-Za-z0-9_.:]*"
_ATTRS = rf'(?: {_NAME}="[^"<]*")*'
_ATTR = re.compile(rf' ({_NAME})="([^"<]*)"')
# One token of a feed body: an end tag (group 1) or a start tag — its
# name (2), attribute list (3) and "/" if it is empty (4) — then the
# character data up to the next tag (5).  Where no tag starts, the rest
# of the body is one stray token (group 6), so the tokens always cover
# the whole body and garbage costs a single token.
_TOKEN = re.compile(
    rf'<(?:/({_NAME})|({_NAME})({_ATTRS})(/?))>([^<]*)|(.+)',
    re.S,
)
_PREFIX = r"(?:[A-Za-z_][-A-Za-z0-9_.]*:)?"
_FEED_HEAD = re.compile(
    r'\s*(?:<\?xml [^<>]*\?>)?\s*'
    rf'<(?P<envelope>{_PREFIX})Envelope(?: [^<>]*)?>\s*'
    rf'<(?P<body>{_PREFIX})Body>\s*'
    rf'<FragmentFeed(?P<attrs>{_ATTRS})(?P<empty>/?)>'
)
# The end tags after the feed; their prefixes must be the head's.
_FEED_TAIL = re.compile(
    rf'\s*</(?P<body>{_PREFIX})Body>\s*'
    rf'</(?P<envelope>{_PREFIX})Envelope>\s*\Z'
)


def _attr_text(data: ElementData, parent: str | None) -> str:
    """The attribute list of ``data``'s start tag, leading space
    included: its own attributes, then ``_eid``, then on a row root
    (``parent`` is its ``PARENT`` value) ``ID`` and ``PARENT``.  An own
    attribute of one of those names is overwritten in place.  The key
    values are integers (or empty) and need no escaping."""
    attrs = dict(data.attrs)
    for key, value in attrs.items():
        attrs[key] = escape_attr(value)
    attrs[_EID_ATTR] = eid = str(data.eid)
    if parent is not None:
        attrs[ID_ATTR] = eid
        attrs[PARENT_ATTR] = parent
    return "".join([f' {key}="{value}"' for key, value in attrs.items()])


def _write_element(out: list[str], data: ElementData,
                   parent: str | None = None) -> None:
    """Append the wire form of ``data`` and its subtree to ``out``:
    the compact serialization of the equivalent element tree."""
    name = data.name
    head = f"<{name}{_attr_text(data, parent)}"
    text = data.text
    children = data.children
    if children and any(children.values()):
        out.append(f"{head}>{escape_text(text)}" if text else f"{head}>")
        for group in children.values():
            for child in group:
                _write_element(out, child)
        out.append(f"</{name}>")
    elif text:
        out.append(f"{head}>{escape_text(text)}</{name}>")
    else:
        out.append(f"{head}/>")


def _rows_digest(rows: list[str]) -> str:
    """:func:`feed_digest` over rows given as wire strings."""
    return _adler(_DECLARATION + _DECLARATION.join(rows) if rows else "")


def wrap_fragment_feed(instance: FragmentInstance,
                       seq: int | None = None) -> str:
    """Serialize a fragment instance as one SOAP message.

    The message carries a content ``checksum``; ``seq`` (set for
    chunked streaming transfers) numbers this message within its feed.
    """
    rows = []
    for row in instance.rows:
        out: list[str] = []
        _write_element(out, row.data,
                       "" if row.parent is None else str(row.parent))
        rows.append("".join(out))
    sequence = "" if seq is None else f' {SEQ_ATTR}="{seq}"'
    head = (f'{_FEED_OPEN} fragment="{escape_attr(instance.fragment.name)}"'
            f' count="{len(rows)}"{sequence}'
            f' {CHECKSUM_ATTR}="{_rows_digest(rows)}"')
    if not rows:
        return head + _EMPTY_FEED_CLOSE
    return "".join([head, ">", *rows, _FEED_CLOSE])


@dataclass(frozen=True, slots=True)
class FeedHeader:
    """What a ``FragmentFeed`` message declares about itself."""

    fragment: str
    count: int | None
    seq: int | None
    checksum: str | None


def _unescaped(value: str) -> str:
    try:
        return unescape(value)
    except (ReproError, ValueError, OverflowError) as exc:
        raise SoapFault(f"bad character reference in feed: {exc}") \
            from None


def _attr_dict(attr_text: str, element: str) -> dict[str, str]:
    pairs = _ATTR.findall(attr_text)
    attrs = dict(pairs)
    if len(attrs) != len(pairs):
        raise SoapFault(f"<{element}> repeats an attribute")
    if "&" in attr_text:
        for key, value in attrs.items():
            attrs[key] = _unescaped(value)
    return attrs


def _not_a_feed(text: str) -> SoapFault:
    """The error for a message whose head is not a feed's: the carried
    Fault, a wrong payload kind, or malformed markup."""
    payload = parse_envelope(text)  # raises for faults and non-XML
    if payload.local_name() != "FragmentFeed":
        return SoapFault(f"expected a FragmentFeed, got <{payload.name}>")
    return SoapFault("FragmentFeed message is not in the wire form")


def is_fragment_feed(text: str) -> bool:
    """Whether ``text`` starts like a ``FragmentFeed`` message."""
    return _FEED_HEAD.match(text) is not None


def read_feed_header(text: str) -> FeedHeader:
    """The declared attributes of a ``FragmentFeed`` message.

    Only the message head is read; the rows are not checked.

    Raises:
        SoapFault: if ``text`` is not a feed message (a carried
            ``Fault`` raises its message) or an attribute is malformed.
    """
    return _scan_head(text)[0]


def _scan_head(text: str) -> tuple[FeedHeader, re.Match[str]]:
    """The header and the :data:`_FEED_HEAD` match of a feed message."""
    match = _FEED_HEAD.match(text)
    if match is None:
        raise _not_a_feed(text)
    attrs = _attr_dict(match["attrs"], "FragmentFeed")
    name = attrs.get("fragment")
    if not name:
        raise SoapFault("feed names no fragment")
    count = attrs.get("count")
    seq = attrs.get(SEQ_ATTR)
    header = FeedHeader(
        name,
        None if count is None else _integer(count, "feed count"),
        None if seq is None else _integer(seq, "feed seq"),
        attrs.get(CHECKSUM_ATTR),
    )
    return header, match


def _scan_feed(text: str) -> tuple[FeedHeader, list[tuple], int, str]:
    """Tokenize a feed message and check it before interpretation.

    Returns the header, the body tokens, the row count and the
    recomputed checksum.  The body must be a sequence of complete
    elements whose character data precedes their children, closed by
    end tags that match the envelope's start tags.  The checksum over
    the received row text is checked, then the row count, before any
    attribute or text of a row is interpreted.
    """
    header, head = _scan_head(text)
    start = head.end()
    empty = bool(head["empty"])
    end = start if empty else text.rfind("</FragmentFeed>")
    tail = None if end < start else _FEED_TAIL.match(
        text, end if empty else end + len("</FragmentFeed>"))
    if tail is None or tail.group("body", "envelope") \
            != head.group("body", "envelope"):
        raise SoapFault(
            f"feed of fragment {header.fragment!r} is not closed "
            "properly (message truncated or corrupted in flight)"
        )
    body = text[start:end]
    tokens = _TOKEN.findall(body)
    rows: list[str] = []
    open_names: list[str] = []
    position = row_start = 0
    for closing, name, attrs, empty_tag, chars, stray in tokens:
        if name and not empty_tag:
            if not open_names:
                row_start = position
            open_names.append(name)
            position += len(name) + len(attrs) + 2 + len(chars)
            continue
        if stray or chars:
            raise SoapFault(
                f"feed of fragment {header.fragment!r} is malformed at "
                f"body offset {position} (message corrupted in flight)"
            )
        if closing:
            if not open_names or open_names.pop() != closing:
                raise SoapFault(
                    f"feed of fragment {header.fragment!r} has a "
                    f"mismatched </{closing}> (message corrupted in "
                    "flight)"
                )
            position += len(closing) + 3
        else:
            if not open_names:
                row_start = position
            position += len(name) + len(attrs) + 3
        if not open_names:
            rows.append(body[row_start:position])
    if open_names:
        raise SoapFault(
            f"feed of fragment {header.fragment!r} leaves "
            f"<{open_names[-1]}> open (message corrupted in flight)"
        )
    digest = _rows_digest(rows)
    if header.checksum is not None and header.checksum != digest:
        raise SoapFault(
            f"feed of fragment {header.fragment!r} failed its checksum "
            "(message corrupted in flight)"
        )
    if header.count is not None and header.count != len(rows):
        raise SoapFault(
            f"feed declares {header.count} rows but carries {len(rows)}"
        )
    return header, tokens, len(rows), digest


def verify_feed_message(text: str) -> tuple[FeedHeader, int, str]:
    """Receiver-side verification of a ``FragmentFeed`` message.

    Needs no :class:`~repro.core.fragment.Fragment`: a network
    receiver (the :class:`~repro.net.server.FeedSink`) checks what it
    can see — well-formed rows, the declared row count, and the
    Adler-32 checksum over the received row text.  Returns ``(header,
    row count, recomputed digest)``.

    Raises:
        SoapFault: on any defect of the message.
    """
    header, _, count, digest = _scan_feed(text)
    return header, count, digest


def _wire_attrs(name: str, attr_text: str
                ) -> tuple[dict[str, str], str, str]:
    """The attributes of a wire start tag: ``(own attributes, _eid,
    PARENT)``; ``ID`` is dropped, as it repeats ``_eid``."""
    attrs = _attr_dict(attr_text, name)
    eid = attrs.pop(_EID_ATTR, None)
    if eid is None:
        raise SoapFault(
            f"wire element <{name}> is missing its {_EID_ATTR}"
        )
    attrs.pop(ID_ATTR, None)
    return attrs, eid, attrs.pop(PARENT_ATTR, "")


def unwrap_fragment_feed(text: str,
                         fragment: Fragment) -> FragmentInstance:
    """Parse a SOAP fragment-feed message back into an instance.

    Raises:
        SoapFault: on any defect of the message (see
            :func:`verify_feed_message`), or when it carries another
            fragment than ``fragment``.
    """
    header, tokens, _, _ = _scan_feed(text)
    if header.fragment != fragment.name:
        raise SoapFault(
            f"feed carries fragment {header.fragment!r}, expected "
            f"{fragment.name!r}"
        )
    rows: list[FragmentRow] = []
    stack: list[ElementData] = []
    root_parent = ""
    try:
        for closing, name, attr_text, empty_tag, chars, _ in tokens:
            if closing:
                node = stack.pop()
            else:
                attrs, eid, parent = _wire_attrs(name, attr_text)
                if "&" in chars:
                    chars = _unescaped(chars)
                node = ElementData(name, int(eid), attrs, chars)
                if stack:
                    stack[-1].children.setdefault(name, []).append(node)
                else:
                    root_parent = parent
                if not empty_tag:
                    stack.append(node)
                    continue
            if not stack:
                rows.append(FragmentRow(
                    node, int(root_parent) if root_parent else None
                ))
    except ValueError as exc:
        raise SoapFault(
            f"feed of fragment {header.fragment!r} carries a "
            f"non-integer key: {exc}"
        ) from None
    return FragmentInstance(fragment, rows)
