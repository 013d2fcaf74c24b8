"""The feed wire format defined through the element tree: build each
row as an :class:`~repro.xmlkit.tree.Element` (own attributes, then
``_eid``, then ``ID``/``PARENT`` on row roots), serialize it, digest
the rows with :func:`~repro.net.soap.feed_digest` and wrap the feed in
a SOAP envelope.  The one-pass codec must produce exactly these bytes.
"""

from repro.core.fragment import ID_ATTR, PARENT_ATTR
from repro.core.instance import ElementData, FragmentInstance
from repro.net.soap import feed_digest, soap_envelope
from repro.xmlkit.tree import Element


def _wire_element(data: ElementData,
                  exposure: dict[str, str] | None = None) -> Element:
    attrs = dict(data.attrs)
    attrs["_eid"] = str(data.eid)
    attrs.update(exposure or {})
    element = Element(data.name, attrs, text=data.text)
    for group in data.children.values():
        element.children.extend(_wire_element(child) for child in group)
    return element


def reference_feed_message(instance: FragmentInstance,
                           seq: int | None = None) -> str:
    attrs = {"fragment": instance.fragment.name,
             "count": str(instance.row_count())}
    if seq is not None:
        attrs["seq"] = str(seq)
    feed = Element("FragmentFeed", attrs)
    for row in instance.rows:
        feed.children.append(_wire_element(row.data, {
            ID_ATTR: str(row.eid),
            PARENT_ATTR: "" if row.parent is None else str(row.parent),
        }))
    feed.attrs["checksum"] = feed_digest(feed.children)
    return soap_envelope(feed)
