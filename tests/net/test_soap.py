"""SOAP envelopes and fragment-feed wire format."""

import pytest

from repro.errors import SoapFault
from repro.core.fragment import Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.net.soap import (
    feed_digest,
    parse_envelope,
    read_feed_header,
    soap_envelope,
    soap_fault,
    unwrap_document,
    unwrap_fragment_feed,
    verify_feed_message,
    verify_fragment_feed,
    wrap_document,
    wrap_fragment_feed,
)
from repro.workloads.customer import fragment_customers
from repro.xmlkit.tree import Element
from repro.xmlkit.writer import serialize

from tests.net.feed_reference import reference_feed_message


class TestEnvelope:
    def test_round_trip(self):
        body = Element("Ping", {"n": "1"})
        payload = parse_envelope(soap_envelope(body))
        assert payload.name == "Ping"
        assert payload.get("n") == "1"

    def test_not_an_envelope(self):
        with pytest.raises(SoapFault):
            parse_envelope("<NotSoap/>")

    def test_empty_body_rejected(self):
        text = ('<soap:Envelope xmlns:soap="ns"><soap:Body/>'
                "</soap:Envelope>")
        with pytest.raises(SoapFault):
            parse_envelope(text)

    def test_fault_raises(self):
        text = (
            '<soap:Envelope xmlns:soap="ns"><soap:Body>'
            "<soap:Fault><faultstring>boom</faultstring></soap:Fault>"
            "</soap:Body></soap:Envelope>"
        )
        with pytest.raises(SoapFault, match="boom"):
            parse_envelope(text)


class TestFragmentFeed:
    @pytest.fixture
    def order_feed(self, customers_s, customer_documents):
        return fragment_customers(customer_documents, customers_s)[
            "Line_Feature"
        ]

    def test_round_trip_preserves_rows(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        received = unwrap_fragment_feed(message, order_feed.fragment)
        assert received.row_count() == order_feed.row_count()
        sent = sorted(
            serialize(doc) for doc in order_feed.to_xml_documents()
        )
        got = sorted(
            serialize(doc) for doc in received.to_xml_documents()
        )
        assert got == sent

    def test_eids_survive(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        received = unwrap_fragment_feed(message, order_feed.fragment)
        sent_eids = sorted(row.eid for row in order_feed.rows)
        got_eids = sorted(row.eid for row in received.rows)
        assert got_eids == sent_eids

    def test_wrong_fragment_rejected(self, order_feed,
                                     customers_schema):
        message = wrap_fragment_feed(order_feed)
        other = Fragment(customers_schema, ["Order"])
        with pytest.raises(SoapFault, match="carries fragment"):
            unwrap_fragment_feed(message, other)

    def test_count_mismatch_rejected(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        tampered = message.replace(
            f'count="{order_feed.row_count()}"', 'count="999"'
        )
        with pytest.raises(SoapFault, match="declares"):
            unwrap_fragment_feed(tampered, order_feed.fragment)

    def test_missing_eid_rejected(self, customers_schema):
        fragment = Fragment(customers_schema, ["Order"])
        text = (
            '<soap:Envelope xmlns:soap="ns"><soap:Body>'
            '<FragmentFeed fragment="Order" count="1">'
            '<Order ID="1" PARENT=""/></FragmentFeed>'
            "</soap:Body></soap:Envelope>"
        )
        with pytest.raises(SoapFault, match="_eid"):
            unwrap_fragment_feed(text, fragment)


class TestFeedIntegrity:
    """Checksums and sequence numbers on the wire."""

    @pytest.fixture
    def order_feed(self, customers_s, customer_documents):
        return fragment_customers(customer_documents, customers_s)[
            "Line_Feature"
        ]

    def test_message_carries_checksum(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        assert 'checksum="' in message

    def test_tampered_checksum_rejected(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        head, _, tail = message.partition('checksum="')
        tampered = head + 'checksum="' + (
            "1" + tail[1:] if tail[0] == "0" else "0" + tail[1:]
        )
        with pytest.raises(SoapFault, match="checksum"):
            unwrap_fragment_feed(tampered, order_feed.fragment)

    def test_tampered_row_content_rejected(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        first_row = order_feed.rows[0]
        tampered = message.replace(
            f'_eid="{first_row.eid}"', '_eid="evil"', 1
        )
        with pytest.raises(SoapFault, match="checksum"):
            unwrap_fragment_feed(tampered, order_feed.fragment)

    def test_sequence_number_round_trip(self, order_feed):
        message = wrap_fragment_feed(order_feed, seq=42)
        assert 'seq="42"' in message
        received = unwrap_fragment_feed(message, order_feed.fragment)
        assert received.row_count() == order_feed.row_count()

    def test_unsequenced_message_has_no_seq(self, order_feed):
        assert 'seq="' not in wrap_fragment_feed(order_feed)


class TestEnvelopeErrorPaths:
    def test_multi_child_body_rejected(self):
        text = (
            '<soap:Envelope xmlns:soap="ns"><soap:Body>'
            "<First/><Second/></soap:Body></soap:Envelope>"
        )
        with pytest.raises(SoapFault, match="exactly one element"):
            parse_envelope(text)

    def test_unparseable_text_rejected(self):
        with pytest.raises(SoapFault, match="well-formed"):
            parse_envelope("<broken")

    def test_soap_fault_round_trip(self):
        with pytest.raises(SoapFault, match="no such feed"):
            parse_envelope(soap_fault("no such feed"))

    def test_nested_fault_reports_root_cause_first(self):
        """A downstream hop's Fault rides in the detail element; its
        faultstring is the root cause and must lead the message."""
        inner = Element("Fault")
        inner.append(Element("faultstring", text="disk full"))
        detail = Element("detail")
        detail.append(inner)
        outer = Element("soap:Fault")
        outer.append(Element("faultstring", text="upstream failed"))
        outer.append(detail)
        with pytest.raises(SoapFault,
                           match="disk full: upstream failed"):
            parse_envelope(soap_envelope(outer))

    def test_fault_without_faultstring_still_raises(self):
        with pytest.raises(SoapFault, match="fault"):
            parse_envelope(soap_envelope(Element("soap:Fault")))


class TestDocumentWrapper:
    def test_round_trip(self):
        text = "<Site><Item money='3.50'/></Site>"
        payload = parse_envelope(wrap_document(text))
        assert unwrap_document(payload) == text

    def test_wrong_payload_rejected(self):
        with pytest.raises(SoapFault, match="expected a Document"):
            unwrap_document(Element("FragmentFeed"))

    def test_byte_count_mismatch_rejected(self):
        payload = Element("Document", {"bytes": "999"}, text="tiny")
        with pytest.raises(SoapFault, match="999 bytes"):
            unwrap_document(payload)


class TestVerifyFragmentFeed:
    @pytest.fixture
    def order_payload(self, customers_s, customer_documents):
        feed = fragment_customers(customer_documents, customers_s)[
            "Line_Feature"
        ]
        return parse_envelope(wrap_fragment_feed(feed))

    def test_returns_name_count_digest(self, order_payload):
        name, count, digest = verify_fragment_feed(order_payload)
        assert name == "Line_Feature"
        assert count == len(order_payload.children)
        assert digest == order_payload.get("checksum")

    def test_wrong_payload_kind_rejected(self):
        with pytest.raises(SoapFault, match="expected a FragmentFeed"):
            verify_fragment_feed(Element("Document"))

    def test_missing_fragment_name_rejected(self):
        with pytest.raises(SoapFault, match="names no fragment"):
            verify_fragment_feed(Element("FragmentFeed"))

    def test_checksum_mismatch_rejected(self, order_payload):
        order_payload.attrs["checksum"] = "00000000"
        with pytest.raises(SoapFault, match="checksum"):
            verify_fragment_feed(order_payload)

    def test_count_mismatch_rejected(self, order_payload):
        order_payload.children.pop()
        # Recompute the digest so only the count is wrong.
        from repro.net.soap import feed_digest
        order_payload.attrs["checksum"] = feed_digest(
            order_payload.children
        )
        with pytest.raises(SoapFault, match="declares"):
            verify_fragment_feed(order_payload)


def _reseal(message: str) -> str:
    """``message`` with its checksum recomputed by the tree-based
    reference, so a test can reach the checks behind the checksum."""
    payload = parse_envelope(message)
    declared = payload.get("checksum")
    return message.replace(f'checksum="{declared}"',
                           f'checksum="{feed_digest(payload.children)}"')


class TestExactText:
    """Row text crosses the wire exactly, surrounding whitespace
    included (the tree parser strips it, so a re-serialized digest
    reported such feeds as corrupted in flight)."""

    @pytest.mark.parametrize("text", ["  padded  ", " lead", "trail\t",
                                      "\n", "   ", " a\r\nb "])
    def test_whitespace_text_round_trips(self, customers_schema, text):
        fragment = Fragment(customers_schema, ["Order"])
        instance = FragmentInstance(fragment, [
            FragmentRow(ElementData("Order", 7, {"n": " x "}, text), 3),
        ])
        message = wrap_fragment_feed(instance)
        assert unwrap_fragment_feed(message, fragment).rows \
            == instance.rows
        header, count, digest = verify_feed_message(message)
        assert count == 1 and digest == header.checksum


class TestCodecMatchesReference:
    @pytest.fixture
    def order_feed(self, customers_s, customer_documents):
        return fragment_customers(customer_documents, customers_s)[
            "Line_Feature"
        ]

    def test_wire_bytes_equal_tree_serialization(self, order_feed):
        assert wrap_fragment_feed(order_feed, seq=3) \
            == reference_feed_message(order_feed, seq=3)

    def test_reserved_attribute_names_overwritten_in_place(
            self, customers_schema):
        fragment = Fragment(customers_schema, ["Order"])
        data = ElementData("Order", 5, {"ID": "mine", "a": "1",
                                        "_eid": "x"})
        data.add_child(ElementData("Line", 6, {"PARENT": "p"}))
        instance = FragmentInstance(fragment, [FragmentRow(data, 2)])
        message = wrap_fragment_feed(instance)
        assert message == reference_feed_message(instance)
        received = unwrap_fragment_feed(message, fragment)
        assert received.rows[0].data.attrs == {"a": "1"}
        assert received.rows[0].parent == 2

    def test_empty_feed(self, customers_schema):
        fragment = Fragment(customers_schema, ["Order"])
        instance = FragmentInstance(fragment, [])
        message = wrap_fragment_feed(instance)
        assert message == reference_feed_message(instance)
        assert unwrap_fragment_feed(message, fragment).rows == []

    def test_verification_agrees_with_tree_reference(self, order_feed):
        message = wrap_fragment_feed(order_feed, seq=9)
        header, count, digest = verify_feed_message(message)
        assert (header.fragment, count, digest) \
            == verify_fragment_feed(parse_envelope(message))
        assert header == read_feed_header(message)
        assert header.seq == 9 and header.count == count
        assert header.checksum == digest


class TestTypedFeedErrors:
    """Every defect of a feed message is a SoapFault."""

    @pytest.fixture
    def order_feed(self, customers_s, customer_documents):
        return fragment_customers(customer_documents, customers_s)[
            "Line_Feature"
        ]

    @pytest.mark.parametrize("old,new", [
        ('count="', 'count="x'),
        ('checksum="', 'seq="1.5" checksum="'),
    ])
    def test_non_integer_header_attribute(self, order_feed, old, new):
        message = wrap_fragment_feed(order_feed).replace(old, new, 1)
        with pytest.raises(SoapFault, match="must be an integer"):
            unwrap_fragment_feed(message, order_feed.fragment)
        with pytest.raises(SoapFault, match="must be an integer"):
            verify_feed_message(message)

    @pytest.mark.parametrize("attr", ["PARENT", "_eid"])
    def test_non_integer_key_behind_a_valid_checksum(self, order_feed,
                                                     attr):
        message = wrap_fragment_feed(order_feed)
        head, _, tail = message.partition(f' {attr}="')
        _, _, rest = tail.partition('"')
        message = _reseal(f'{head} {attr}="1x"{rest}')
        with pytest.raises(SoapFault, match="non-integer"):
            unwrap_fragment_feed(message, order_feed.fragment)

    def test_reference_verifier_types_a_bad_count(self, order_feed):
        payload = parse_envelope(wrap_fragment_feed(order_feed))
        payload.attrs["count"] = "many"
        with pytest.raises(SoapFault, match="must be an integer"):
            verify_fragment_feed(payload)

    def test_document_bad_byte_count(self):
        payload = Element("Document", {"bytes": "lots"}, text="tiny")
        with pytest.raises(SoapFault, match="must be an integer"):
            unwrap_document(payload)

    def test_fault_reply_raises_its_message(self, order_feed):
        with pytest.raises(SoapFault, match="no such feed"):
            unwrap_fragment_feed(soap_fault("no such feed"),
                                 order_feed.fragment)

    def test_other_payload_named(self, order_feed):
        with pytest.raises(SoapFault, match="expected a FragmentFeed"):
            verify_feed_message(wrap_document("text"))

    def test_feed_outside_the_wire_form(self, order_feed):
        message = wrap_fragment_feed(order_feed).replace(
            "<soap:Body>", "<soap:Header/><soap:Body>"
        )
        with pytest.raises(SoapFault, match="wire form"):
            unwrap_fragment_feed(message, order_feed.fragment)

    @pytest.mark.parametrize("envelope,body", [
        ("soap", "other"), ("other", "soap"), ("", "soap"),
    ])
    def test_end_tags_must_match_the_head(self, order_feed, envelope,
                                          body):
        message = wrap_fragment_feed(order_feed)
        closing = "</soap:Body></soap:Envelope>"
        assert message.endswith(closing)
        message = message[:-len(closing)] + (
            f"</{body}:Body></{envelope}:Envelope>" if envelope
            else f"</{body}:Body></Envelope>"
        )
        with pytest.raises(SoapFault, match="not closed properly"):
            verify_feed_message(message)
        with pytest.raises(SoapFault, match="not closed properly"):
            unwrap_fragment_feed(message, order_feed.fragment)

    def test_other_matching_prefixes_are_accepted(self, order_feed):
        message = wrap_fragment_feed(order_feed).replace(
            "soap:Body", "b:Body").replace("soap:Envelope", "e:Envelope")
        received = unwrap_fragment_feed(message, order_feed.fragment)
        assert received.rows == order_feed.rows

    @pytest.mark.parametrize("cut", [-1, -30, -60])
    def test_truncated_feed(self, order_feed, cut):
        message = wrap_fragment_feed(order_feed)[:cut]
        with pytest.raises(SoapFault):
            unwrap_fragment_feed(message, order_feed.fragment)

    @pytest.mark.parametrize("old,new", [
        ("><", "> <"), ("</", "<"), ("_eid=", "_eid ="),
    ])
    def test_malformed_rows(self, order_feed, old, new):
        message = wrap_fragment_feed(order_feed)
        head, _, rows = message.partition("checksum=")
        message = head + "checksum=" + rows.replace(old, new, 2)
        with pytest.raises(SoapFault):
            verify_feed_message(message)
