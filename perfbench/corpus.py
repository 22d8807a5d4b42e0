"""Seeded input generators with known answers.

Every document is produced from ``random.Random(seed)`` and nothing else,
so one seed always yields byte-identical inputs.  Each input carries the
answer the program must give, decided by the generator when it builds
the input (a valid order, a facet violation, a missing child, ...), and
:func:`confirm_answers` checks every answer once against the DOM
:class:`~repro.xsd.validator.SchemaValidator`, a verdict producer
independent of the lanes under test.  Transform and serialization
outputs are predicted as text here, never copied from the program.

The number of documents of each shape is fixed; the seed varies their
contents.  That keeps the work per run the same across seeds, so a
seed changes the inputs without changing what the numbers mean.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

PRODUCTS = (
    "Lawnmower", "Baby Monitor", "Garden Hose", "Rake", "Sprinkler",
    "Work Gloves", "Wheelbarrow", "Hedge Trimmer", "Salt & Pepper",
)
NAMES = (
    "Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi",
    "Ivan", "Judy", "Mallory", "Niaj", "Olivia", "Peggy", "Rupert", "Sybil",
)
STREETS = ("Maple Street", "Oak Avenue", "Elm Road", "Pine Lane")

#: outcome labels: the answer an operation must produce
VALID = "valid"
INVALID = "invalid"  # well-formed, rejected by the schema
MALFORMED = "malformed"  # rejected by the XML parser

#: the two-rule transform of the ingest workload (input PO, output WML)
OPTION_TEMPLATE = '<option value="p">$name:text$</option>'
SKU_TEMPLATE = "<option>$sku:text$</option>"

#: ingest corpus shape: documents per class, fixed for every seed
INGEST_SHAPE = {"po10": 40, "po100": 10, "po1000": 2, "xhtml": 6}
#: invalid mutants of the ingest corpus (~10% of it), by kind
INGEST_MUTANTS = ("facet", "facet", "missing", "undeclared", "undeclared-xhtml", "malformed")
#: share of valid orders that also take a typed update + serialize
UPDATE_SHARE = 0.2

#: gauntlet families of the bulk corpus and the unbounded particle each
#: one is scaled along
FAMILIES = ("techdoc", "secreport", "cmdb")
BULK_FILES = 80  # per family
BULK_INVALID = 24  # per family (30%)
#: repetitions of each family's unbounded particle per instance (techdoc
#: blocks, secreport findings, cmdb relations), chosen so that each family
#: takes about a third of the validation time: measured by shares.py, see
#: "Why these shares" in README.md
FAMILY_SCALE = {"techdoc": 75, "secreport": 32, "cmdb": 150}


def esc(text: str) -> str:
    """Character data escaping as the serializer writes it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# -- purchase orders ----------------------------------------------------------


@dataclass
class Item:
    sku: str
    product: str
    quantity: int
    price: str
    comment: str | None


@dataclass
class Order:
    ship_name: str
    bill_name: str
    street: str
    items: list[Item]


def make_order(rng: random.Random, item_count: int) -> Order:
    items = []
    for index in range(item_count):
        items.append(
            Item(
                sku=f"{rng.randint(100, 999)}-{chr(65 + index % 26)}{chr(65 + (index // 26) % 26)}",
                product=rng.choice(PRODUCTS),
                quantity=rng.randint(1, 99),
                price=f"{rng.randint(1, 500)}.{rng.randint(0, 99):02d}",
                comment=f"note {rng.randint(0, 9999)}" if rng.random() < 0.33 else None,
            )
        )
    return Order(
        ship_name=f"{rng.choice(NAMES)} Smith",
        bill_name=f"{rng.choice(NAMES)} Jones",
        street=f"{rng.randint(1, 999)} {rng.choice(STREETS)}",
        items=items,
    )


def order_text(order: Order, pretty: bool = True, mutate: str | None = None) -> str:
    """The order as a document.

    ``pretty`` is the indented input shape of the repository's
    purchase-order benchmarks; ``pretty=False`` is exactly what
    ``serialize`` writes for the parsed tree (whitespace-only text in
    element-only content is not kept).  *mutate* makes the first item
    invalid in one of the ways :data:`INGEST_MUTANTS` names.
    """
    nl, i1, i2, i3 = ("\n", "  ", "    ", "      ") if pretty else ("", "", "", "")
    parts = [f'<purchaseOrder orderDate="1999-10-20">{nl}']
    for tag, name in (("shipTo", order.ship_name), ("billTo", order.bill_name)):
        parts.append(
            f'{i1}<{tag} country="US">{nl}'
            f"{i2}<name>{esc(name)}</name>{nl}"
            f"{i2}<street>{esc(order.street)}</street>{nl}"
            f"{i2}<city>Mill Valley</city>{nl}"
            f"{i2}<state>CA</state>{nl}"
            f"{i2}<zip>90952</zip>{nl}"
            f"{i1}</{tag}>{nl}"
        )
    parts.append(f"{i1}<items>{nl}")
    for index, item in enumerate(order.items):
        quantity = str(item.quantity)
        product = f"{i3}<productName>{esc(item.product)}</productName>{nl}"
        extra = ""
        close = "</item>"
        if index == 0 and mutate == "facet":
            quantity = "100"  # maxExclusive 100
        elif index == 0 and mutate == "missing":
            product = ""
        elif index == 0 and mutate == "undeclared":
            extra = f"{i3}<giftWrap>yes</giftWrap>{nl}"
        elif index == 0 and mutate == "malformed":
            close = "</itme>"
        parts.append(
            f'{i2}<item partNum="{item.sku}">{nl}'
            f"{product}"
            f"{i3}<quantity>{quantity}</quantity>{nl}"
            f"{i3}<USPrice>{item.price}</USPrice>{nl}"
            + (f"{i3}<comment>{esc(item.comment)}</comment>{nl}" if item.comment else "")
            + f"{extra}{i2}{close}{nl}"
        )
    parts.append(f"{i1}</items>{nl}</purchaseOrder>{nl}")
    return "".join(parts)


def transform_prediction(order: Order) -> str:
    """What the two-rule transform emits: names first, then SKUs."""
    names = "".join(f'<option value="p">{esc(item.product)}</option>' for item in order.items)
    skus = "".join(f"<option>{item.sku}</option>" for item in order.items)
    return names + skus


# -- XHTML pages --------------------------------------------------------------


def xhtml_text(rng: random.Random, rows: int, mutate: bool = False) -> str:
    """An XHTML-subset page in the shape of the ingest benchmarks' pages."""
    blocks = []
    for index in range(rows):
        word = rng.choice(NAMES)
        blocks.append(
            f"<h2>Section {index} {word}</h2>"
            f"<p>Paragraph <b>{rng.randint(0, 999)}</b> with <i>mixed</i> content and "
            f'a <a href="/item/{rng.randint(0, 9999)}">link {index}</a>.<br/></p>'
            f"<ul><li>first {word}</li><li>second &amp; third</li></ul>"
        )
        if index % 10 == 0:
            blocks.append(
                "<table>"
                + "".join(f"<tr><td>cell {index}.{row}</td><td>{word}</td></tr>" for row in range(3))
                + "</table>"
            )
    if mutate:
        blocks.insert(1, "<blink>undeclared</blink>")
    return (
        "<html><head><title>benchmark page</title>"
        '<meta name="generator" content="bench"/></head>'
        "<body>" + "".join(blocks) + "</body></html>"
    )


# -- the ingest corpus --------------------------------------------------------


@dataclass
class IngestDoc:
    name: str
    kind: str  # "po" | "xhtml"
    text: str
    answer: str  # VALID | INVALID | MALFORMED
    order: Order | None = None
    transform: str | None = None  # predicted transform_text output
    update: tuple[int, int] | None = None  # (item index, new quantity)
    serialized: str | None = None  # predicted serialize() after the update


def ingest_corpus(seed: int) -> list[IngestDoc]:
    """The ingest workload's documents in their seeded pass order."""
    rng = random.Random(seed)
    docs: list[IngestDoc] = []
    sizes = {"po10": 10, "po100": 100, "po1000": 1000}
    for kind, count in INGEST_SHAPE.items():
        for n in range(count):
            name = f"{kind}-{n}"
            if kind == "xhtml":
                docs.append(IngestDoc(name, "xhtml", xhtml_text(rng, 30), VALID))
                continue
            order = make_order(rng, sizes[kind])
            docs.append(
                IngestDoc(
                    name, "po", order_text(order), VALID, order=order,
                    transform=transform_prediction(order),
                )
            )
    valid_orders = [doc for doc in docs if doc.kind == "po"]
    # A fixed count per size class, so every seed updates the same mix.
    for size in sizes:
        members = [doc for doc in valid_orders if doc.name.startswith(size + "-")]
        for doc in rng.sample(members, max(1, round(len(members) * UPDATE_SHARE))):
            index = rng.randrange(len(doc.order.items))
            quantity = rng.randint(1, 99)
            doc.update = (index, quantity)
            items = list(doc.order.items)
            old = items[index]
            items[index] = Item(old.sku, old.product, quantity, old.price, old.comment)
            updated = Order(doc.order.ship_name, doc.order.bill_name, doc.order.street, items)
            doc.serialized = order_text(updated, pretty=False)
    for n, mutation in enumerate(INGEST_MUTANTS):
        name = f"mutant-{mutation}-{n}"
        if mutation == "undeclared-xhtml":
            docs.append(IngestDoc(name, "xhtml", xhtml_text(rng, 30, mutate=True), INVALID))
            continue
        order = make_order(rng, 10 if n % 2 == 0 else 100)
        answer = MALFORMED if mutation == "malformed" else INVALID
        docs.append(IngestDoc(name, "po", order_text(order, mutate=mutation), answer))
    rng.shuffle(docs)
    return docs


# -- the gauntlet families, scaled --------------------------------------------


@dataclass
class FamilyDoc:
    """One bulk file: a text template with a ``{rev}`` slot.

    Rewriting the slot changes the file's bytes (so the verdict cache
    misses) without changing its verdict: the slot sits in xs:string
    character data.
    """

    name: str
    template: str
    valid: bool

    def text(self, rev: int) -> str:
        return self.template.replace("{rev}", str(rev))


_TECHDOC_INVALID = ("abstract-head", "missing-severity", "unqualified-local")
_SECREPORT_INVALID = ("bad-severity", "note-wrong-ns", "severity-wrong-ns")
_CMDB_INVALID = ("missing-version", "unknown-xsi-type", "qualified-local")
_INVALID_KINDS = {
    "techdoc": _TECHDOC_INVALID,
    "secreport": _SECREPORT_INVALID,
    "cmdb": _CMDB_INVALID,
}


def _techdoc(rng: random.Random, mutation: str | None, _index: int) -> str:
    blocks = []
    for index in range(FAMILY_SCALE["techdoc"]):
        texts = "".join(
            f"<text>{rng.choice(NAMES)} step {index}.{t} {'{rev}' if index == 0 and t == 0 else ''}</text>"
            for t in range(index % 4 if index else 1)
        )
        if rng.random() < 0.3:
            severity = rng.choice(("caution", "danger"))
            blocks.append(f'<warning severity="{severity}">{texts}</warning>')
        else:
            blocks.append(f"<para>{texts}</para>")
    title = "<title>Pump maintenance</title>"
    if mutation == "abstract-head":
        blocks.insert(3, "<block><text>abstract head</text></block>")
    elif mutation == "missing-severity":
        blocks.insert(3, "<warning><text>no severity</text></warning>")
    elif mutation == "unqualified-local":
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<t:manual xmlns:t="http://example.org/techdoc">'
            + title
            + "".join(block.replace("<", "<t:").replace("<t:/", "</t:") for block in blocks)
            + "</t:manual>\n"
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<manual xmlns="http://example.org/techdoc" lang="en">'
        + title
        + "".join(blocks)
        + "</manual>\n"
    )


def _secreport(rng: random.Random, mutation: str | None, _index: int) -> str:
    findings = []
    for index in range(FAMILY_SCALE["secreport"]):
        notes = "".join(
            f"<c:note>{rng.choice(NAMES)} finding {index}.{n} {'{rev}' if index == 0 and n == 0 else ''}</c:note>"
            for n in range(1 + index % 6)
        )
        severity = rng.choice(("low", "medium", "high"))
        findings.append(f'<r:finding id="f{index}" c:severity="{severity}">{notes}</r:finding>')
    if mutation == "bad-severity":
        findings.insert(2, '<r:finding id="bad" c:severity="urgent"><c:note>x</c:note></r:finding>')
    elif mutation == "note-wrong-ns":
        findings.insert(2, '<r:finding id="bad" c:severity="high"><r:note>x</r:note></r:finding>')
    elif mutation == "severity-wrong-ns":
        findings.insert(2, '<r:finding id="bad" severity="high"><c:note>x</c:note></r:finding>')
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<r:report xmlns:r="http://example.org/secreport" '
        'xmlns:c="http://example.org/common" generated="2026-08-07">'
        + "".join(findings)
        + "</r:report>\n"
    )


def _cmdb(rng: random.Random, mutation: str | None, index: int) -> str:
    relations = "".join(
        f'<relation kind="{rng.choice(("hosts", "runs-on", "depends-on"))}">'
        f"<target>{rng.choice(NAMES).lower()}-{index}</target></relation>"
        for index in range(FAMILY_SCALE["cmdb"])
    )
    software = mutation is None and index % 2 == 0
    xsi = ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
    name = "<name>server {rev}</name>"
    if mutation == "missing-version":
        return (
            f'<?xml version="1.0" encoding="UTF-8"?>\n<cm:item xmlns:cm="http://example.org/cmdb"{xsi} '
            f'xsi:type="cm:SoftwareType">{name}{relations}</cm:item>\n'
        )
    if mutation == "unknown-xsi-type":
        return (
            f'<?xml version="1.0" encoding="UTF-8"?>\n<cm:item xmlns:cm="http://example.org/cmdb"{xsi} '
            f'xsi:type="cm:HardwareType">{name}{relations}</cm:item>\n'
        )
    if mutation == "qualified-local":
        name = "<cm:name>server {rev}</cm:name>"
    head = f' xmlns:cm="http://example.org/cmdb"{xsi} xsi:type="cm:SoftwareType"' if software else ' xmlns:cm="http://example.org/cmdb"'
    version = f"<version>{rng.randint(1, 20)}.{rng.randint(0, 9)}</version>" if software else ""
    return f'<?xml version="1.0" encoding="UTF-8"?>\n<cm:item{head}>{name}{relations}{version}</cm:item>\n'


_BUILDERS = {"techdoc": _techdoc, "secreport": _secreport, "cmdb": _cmdb}


def family_corpus(seed: int, family: str) -> list[FamilyDoc]:
    """*family*'s scaled instances: :data:`BULK_FILES`, 30% invalid."""
    rng = random.Random(f"{seed}:{family}")
    kinds = _INVALID_KINDS[family]
    docs = []
    for index in range(BULK_FILES):
        mutation = kinds[index % len(kinds)] if index < BULK_INVALID else None
        docs.append(
            FamilyDoc(
                f"{family}-{index:03d}.xml",
                _BUILDERS[family](rng, mutation, index),
                mutation is None,
            )
        )
    rng.shuffle(docs)
    return docs


def family_schema_path(root: str, family: str) -> str:
    return os.path.join(root, "tests", "integration", "corpus", family, "schema", "main.xsd")


def family_probe(family: str) -> str:
    """A valid instance of *family*, for warming a pool's workers."""
    return _BUILDERS[family](random.Random(0), None, 0).replace("{rev}", "0")


# -- serve traffic ------------------------------------------------------------

#: the render-heavy order route of the serve throughput benchmark:
#: 150 items, three typed holes each (450 holes per render)
HEAVY_ITEMS = 150
HEAVY_SOURCE = "<items>{}</items>".format(
    "".join(
        f'<item partNum="$p{i}$"><productName>Widget {i}</productName>'
        f"<quantity>$q{i}$</quantity><USPrice>$u{i}$</USPrice></item>"
        for i in range(HEAVY_ITEMS)
    )
)


def heavy_values(variant: int) -> dict[str, str]:
    """Hole values of heavy-route variant *variant*.

    Variants differ only in the first item's price, so a fresh variant
    is a guaranteed response-cache miss and its body differs from the
    base body in exactly one place (see :func:`heavy_body`).
    """
    values = {}
    for i in range(HEAVY_ITEMS):
        values[f"p{i}"] = f"{100 + i}-AB"
        values[f"q{i}"] = str(1 + i % 98)
        values[f"u{i}"] = f"{i}.99"
    values["u0"] = f"{variant}.99"
    return values


def heavy_body(base_body: str, variant: int) -> str:
    """Predict variant *variant*'s body from the base (variant 0) body."""
    old = "<USPrice>0.99</USPrice>"
    assert base_body.count(old) == 1
    return base_body.replace(old, f"<USPrice>{variant}.99</USPrice>")


#: request kinds of the serve mix and their shares.  The shares are set
#: so that each layer the workload is for carries a comparable part of
#: the time (measured by shares.py; see "Why these shares" in README.md):
#: HTTP framing, P-XML rendering, validation and the response cache
SERVE_MIX = (
    ("ship_to", 0.35),  # template GET, Zipf over NAME_POPULATION names
    ("item", 0.12),  # template GET, quantity 1..99
    ("conditional", 0.10),  # If-None-Match with the known ETag -> 304
    ("heavy", 0.03),  # 450-hole route, always a fresh variant -> miss
    ("heavy_hit", 0.03),  # 450-hole route, one of HEAVY_HOT variants -> hit
    ("invalid", 0.05),  # schema-invalid hole -> 422, connection closed
    ("legacy", 0.22),  # the server page (never cached)
    ("post", 0.10),  # POST /-/validate, half of the bodies invalid
)
#: requests per block of the plan that holds :data:`SERVE_MIX` exactly
MIX_BLOCK = 100
#: distinct ``name`` values: larger than the 512-entry response cache
NAME_POPULATION = 2000
#: Zipf exponent of the ``name`` draw; with NAME_POPULATION names it puts
#: the response cache's hit ratio near 3/4, so hits and renders both occur
ZIPF_S = 1.1
POST_POPULATION = 120
#: heavy-route variants that recur (and stay cached); fresh variants are
#: numbered after them
HEAVY_HOT = 8


@dataclass
class Request:
    kind: str
    path: str  # request target
    key: str = ""  # lookup key of the expected answer
    variant: int = 0  # heavy route variant
    body: bytes = b""


@dataclass
class ServePlan:
    requests: list[Request]
    names: list[str]
    posts: list[tuple[str, bool]]  # (document, valid)


def _zipf_cum(n: int) -> list[float]:
    total = 0.0
    cum = []
    for rank in range(1, n + 1):
        total += 1.0 / rank**ZIPF_S
        cum.append(total)
    return cum


def person_name(index: int) -> str:
    return f"{NAMES[index % len(NAMES)]} Number{index}"


def post_document(rng: random.Random, valid: bool) -> str:
    order = make_order(rng, rng.randint(2, 4))
    return order_text(order, mutate=None if valid else rng.choice(("facet", "missing", "undeclared")))


def serve_plan(seed: int, count: int) -> ServePlan:
    """*count* requests of the serve mix, in seeded order."""
    rng = random.Random(seed)
    names = [person_name(index) for index in range(NAME_POPULATION)]
    rng.shuffle(names)  # which names are popular depends on the seed
    posts = [(post_document(rng, index % 2 == 0), index % 2 == 0) for index in range(POST_POPULATION)]
    cum = _zipf_cum(NAME_POPULATION)
    # Every block of MIX_BLOCK consecutive requests holds the mix exactly,
    # in seeded order, so each measurement window sees the same mix.
    block = [kind for kind, share in SERVE_MIX for _ in range(round(share * MIX_BLOCK))]
    kinds: list[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    heavy = HEAVY_HOT
    requests = []
    for kind in kinds[:count]:
        if kind in ("ship_to", "legacy"):
            name = rng.choices(names, cum_weights=cum)[0]
            query = name.replace(" ", "%20")
            path = f"/ship_to?name={query}" if kind == "ship_to" else f"/legacy?who={query}"
            requests.append(Request(kind, path, name))
        elif kind == "item":
            q = str(rng.randint(1, 99))
            requests.append(Request(kind, f"/item?q={q}", q))
        elif kind == "conditional":
            q = str(rng.randint(1, 99))
            requests.append(Request(kind, f"/item?q={q}", q))
        elif kind == "heavy":
            heavy += 1
            requests.append(Request(kind, "", variant=heavy))
        elif kind == "heavy_hit":
            requests.append(Request(kind, "", variant=rng.randrange(HEAVY_HOT)))
        elif kind == "invalid":
            q = str(rng.choice((0, rng.randint(100, 999))))
            requests.append(Request(kind, f"/item?q={q}", q))
        else:
            index = rng.randrange(POST_POPULATION)
            requests.append(Request(kind, "/-/validate", str(index), body=posts[index][0].encode()))
    return ServePlan(requests, names, posts)


# -- confirming known answers -------------------------------------------------


def dom_answer(schema, text: str) -> str:
    """The DOM validator's verdict on *text*, as an outcome label."""
    from repro.dom import parse_document
    from repro.errors import XmlSyntaxError
    from repro.xsd.validator import SchemaValidator

    try:
        document = parse_document(text)
    except XmlSyntaxError:
        return MALFORMED
    return VALID if not SchemaValidator(schema).validate(document) else INVALID


def confirm_answers(schema, labelled: list[tuple[str, str, str]]) -> None:
    """Check ``(name, text, answer)`` triples against the DOM validator.

    Raises :class:`ValueError` naming the first document whose known
    answer the independent validator does not confirm.
    """
    for name, text, answer in labelled:
        verdict = dom_answer(schema, text)
        if verdict != answer:
            raise ValueError(f"known answer of {name} is {answer}, DOM validator says {verdict}")
