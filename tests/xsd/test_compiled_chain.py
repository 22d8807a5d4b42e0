"""``SimpleType.parse`` runs one check chain compiled once per type.

The chain must give exactly what the interpreted walk over the facet set
gives (``tests/oracles/simple_walk.py``): the same value, or the same
error with the same message.  Hypothesis holds the two together over
every built-in type and over generated restrictions with patterns,
ranges, digits, lengths, enumerations, lists and unions.  The
check-only entry point, ``SimpleType.check``, accepts exactly what
``parse`` accepts, before and after its accepted-literal memo holds the
literal.
"""

import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import SchemaError, SimpleTypeError
from repro.xsd.simple import (
    ACCEPTED_LITERAL_LENGTH,
    ACCEPTED_LITERALS,
    BUILTIN_TYPES,
    builtin_type,
    list_of,
    restrict,
    union_of,
)
from tests.oracles.simple_walk import interpreted_parse


def compiled_parse(simple_type, raw):
    return simple_type.parse(raw)


def outcome(parse, simple_type, raw):
    """``("value", type, repr)`` or ``("error", type, message)``.

    ``repr`` rather than the value itself, so a NaN compares equal to
    the NaN the other route parsed.
    """
    try:
        value = parse(simple_type, raw)
    except Exception as error:  # noqa: BLE001 - the outcome is the answer
        return ("error", type(error).__name__, str(error))
    return ("value", type(value).__name__, repr(value))


def checked(simple_type, raw):
    """``None``, or the error ``SimpleType.check`` raises."""
    try:
        simple_type.check(raw)
    except SimpleTypeError as error:
        return ("error", type(error).__name__, str(error))
    return None


def assert_parity(simple_type, raw):
    expected = outcome(interpreted_parse, simple_type, raw)
    assert outcome(compiled_parse, simple_type, raw) == expected, (
        simple_type,
        raw,
    )
    # Twice: the second answer may come from the accepted-literal memo.
    verdict = None if expected[0] == "value" else expected
    assert checked(simple_type, raw) == verdict, (simple_type, raw)
    assert checked(simple_type, raw) == verdict, (simple_type, raw)


# -- literals --------------------------------------------------------------------

#: characters that decide lexical questions: ASCII and non-ASCII digits,
#: signs, separators, XML and non-XML white space, letters, escapes
_ALPHABET = (
    "0123456789+-.eE:TZPYMDHS"
    "abcxyzAB_"
    " \t\n\r\xa0\u3000\u2028\x85"
    "٣５٠"
    "=/%&<"
)

_SHAPED = st.one_of(
    st.integers(-(10**12), 10**12).map(str),
    st.decimals(allow_nan=False, allow_infinity=False, places=4).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.dates().map(str),
    st.sampled_from(
        [
            "", "0", "-0", "+5", "007", "100", "120", "1000", "100.0", "9.99",
            "0.000", "1E3", "INF", "-INF", "NaN", "true", "1", "false",
            "2020-01-01", "2020-01-01Z", "2020-01-01T10:00:00+14:00",
            "12:30:00", "P1Y2M3DT4H5M6.5S", "--05-01", "---07", "2020-05",
            "a b", "a  b", " a b ", "a\xa0b", "ABC-123", "123-AB", "en-US",
            "QmFzZTY0", "0FB7", "xs:name", "٣", "５",
            "٢٠٢٠-01-01",
        ]
    ),
)

LITERALS = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=12),
    _SHAPED,
    st.tuples(
        _SHAPED, st.sampled_from(["", " ", "\t", "\n ", "\xa0", "\u3000"])
    ).map(lambda pair: pair[1] + pair[0] + pair[1]),
)


class TestBuiltinTypes:
    @pytest.mark.parametrize("name", sorted(BUILTIN_TYPES))
    @settings(max_examples=60, deadline=None)
    @given(raw=LITERALS)
    def test_every_builtin_matches_the_walk(self, name, raw):
        assert_parity(builtin_type(name), raw)


# -- generated restrictions --------------------------------------------------------

_NUMERIC_BASES = (
    "decimal", "integer", "int", "short", "positiveInteger",
    "nonNegativeInteger", "negativeInteger", "unsignedByte",
)
_ORDERED_BASES = _NUMERIC_BASES + ("float", "double", "date", "dateTime")
_LENGTHED_BASES = ("string", "normalizedString", "token", "NMTOKEN", "hexBinary")
_PATTERNS = (
    r"[0-9]{3}-[A-Z]{2}", r"\d+", r"[a-z]*", "a|b", ".{2,4}", "[^ ]+",
    r"\d{1,3}(\.\d)?", r"[\-+]?\d*", r"\s*x\s*", r"[0-9]{4}-\d\d-\d\d",
)


@st.composite
def restrictions(draw):
    """``(type, facet literals)``: a simple type derived by one or two
    restriction steps from a built-in, list or union type, and the
    literals its bounds and enumerations were written with (boundary
    values the checks must decide); ``None`` when the drawn facets are
    inconsistent (the schema would be refused)."""
    used = []
    shape = draw(st.sampled_from(["ordered", "lengthed", "list", "union"]))
    if shape == "ordered":
        base = builtin_type(draw(st.sampled_from(_ORDERED_BASES)))
    elif shape == "lengthed":
        base = builtin_type(draw(st.sampled_from(_LENGTHED_BASES)))
    elif shape == "list":
        item = builtin_type(
            draw(st.sampled_from(("int", "token", "decimal", "date", "NMTOKEN")))
        )
        base = list_of(item)
    else:
        members = draw(
            st.lists(
                st.sampled_from(
                    ("int", "token", "decimal", "date", "boolean", "float")
                ),
                min_size=1,
                max_size=3,
            )
        )
        base = union_of(tuple(builtin_type(name) for name in members))
    steps = draw(st.integers(1, 2))
    current = base
    for _ in range(steps):
        arguments = {}
        if draw(st.booleans()):
            arguments["patterns"] = tuple(
                draw(st.lists(st.sampled_from(_PATTERNS), min_size=1, max_size=2))
            )
        if draw(st.booleans()):
            enumeration = _in_type(current, draw(st.lists(LITERALS, max_size=6)))
            if enumeration:
                arguments["enumeration"] = tuple(enumeration)
                used.extend(enumeration)
        if shape == "ordered":
            bounds = _in_type(current, draw(st.lists(_SHAPED, max_size=4)))
            for facet, literal in zip(
                draw(
                    st.permutations(
                        ["min_inclusive", "max_inclusive", "min_exclusive",
                         "max_exclusive"]
                    )
                ),
                bounds,
            ):
                arguments[facet] = literal
                used.append(literal)
            primitive = current.primitive().name
            if primitive == "decimal":
                if draw(st.booleans()):
                    arguments["total_digits"] = draw(st.integers(0, 6))
                if draw(st.booleans()):
                    arguments["fraction_digits"] = draw(st.integers(0, 3))
        if shape in ("lengthed", "list"):
            for facet in ("length", "min_length", "max_length"):
                if draw(st.integers(0, 3)) == 0:
                    arguments[facet] = draw(st.integers(0, 5))
        if shape != "union" and draw(st.integers(0, 4)) == 0:
            arguments["white_space"] = "collapse"
        try:
            current = restrict(
                current, draw(st.sampled_from([None, "Gen"])), **arguments
            )
        except SchemaError:  # inconsistent facets: the schema is refused
            return None
    return current, used


def _in_type(simple_type, literals):
    """The *literals* that *simple_type* accepts."""
    return [literal for literal in literals if simple_type.is_valid(literal)]


class TestGeneratedRestrictions:
    @settings(max_examples=400, deadline=None)
    @given(
        restriction=restrictions(),
        raws=st.lists(LITERALS, min_size=1, max_size=6),
    )
    def test_restriction_matches_the_walk(self, restriction, raws):
        assume(restriction is not None)
        simple_type, facet_literals = restriction
        for raw in facet_literals + raws:
            assert_parity(simple_type, raw)

    @settings(max_examples=200, deadline=None)
    @given(
        total=st.integers(0, 5),
        value=st.one_of(
            st.integers(-(10**7), 10**7),
            st.integers(0, 7).flatmap(
                lambda k: st.sampled_from(
                    [10**k, 10**k - 1, -(10**k), 1 - 10**k, 0]
                )
            ),
        ),
        base=st.sampled_from(["integer", "int", "long", "nonNegativeInteger"]),
    )
    def test_integer_total_digits_matches_the_walk(self, total, value, base):
        # The chain's integer range test replaces the decimal digit count.
        simple_type = restrict(builtin_type(base), None, total_digits=total)
        assert_parity(simple_type, str(value))
        assert_parity(simple_type, str(value) + "0")


class TestOneChainPerType:
    def test_the_chain_is_built_once_and_reused(self):
        simple_type = restrict(
            builtin_type("positiveInteger"), None, max_exclusive="100"
        )
        assert "_chain" not in vars(simple_type)
        assert simple_type.parse("5") == 5
        chain = vars(simple_type)["_chain"]
        assert simple_type.parse("6") == 6
        assert vars(simple_type)["_chain"] is chain

    def test_a_type_without_checks_runs_its_kernel(self):
        string = builtin_type("string")
        string.parse("x")
        assert vars(string)["_chain"] is string._kernel

    def test_the_chain_is_never_pickled(self):
        simple_type = restrict(builtin_type("token"), "Code", patterns=(r"\d+",))
        simple_type.parse("42")
        assert "_chain" not in simple_type.__getstate__()
        clone = pickle.loads(pickle.dumps(simple_type))
        assert "_chain" not in vars(clone)
        assert clone.parse(" 42 ") == "42"
        assert "_chain" in vars(clone)


class TestAcceptedLiterals:
    def test_acceptance_is_remembered_and_rejection_is_not(self):
        simple_type = restrict(
            builtin_type("positiveInteger"), None, max_exclusive="100"
        )
        simple_type.check("5")
        assert simple_type.accepted == {"5"}
        for _ in range(2):
            with pytest.raises(SimpleTypeError, match="not below maxExclusive"):
                simple_type.check("100")
        assert simple_type.accepted == {"5"}

    def test_the_memo_is_bounded(self):
        simple_type = restrict(builtin_type("token"), None, patterns=(r"\d+",))
        for number in range(10_000):
            simple_type.check(str(number))
        assert len(simple_type.accepted) == ACCEPTED_LITERALS
        assert "9999" not in simple_type.accepted
        simple_type.check("9999")  # past the cap: checked, still valid
        long = "7" * (ACCEPTED_LITERAL_LENGTH + 1)
        fresh = restrict(builtin_type("token"), None, patterns=(r"\d+",))
        fresh.check(long)
        assert fresh.accepted == set()

    def test_only_the_identity_chain_accepts_everything(self):
        assert builtin_type("string").accepts_everything()
        assert not builtin_type("token").accepts_everything()
        assert not restrict(builtin_type("string"), None, max_length=3).accepts_everything()

    def test_the_memo_is_never_pickled(self):
        def code():
            return restrict(builtin_type("token"), "Code", patterns=(r"\d+",))

        used = code()
        used.check("42")
        assert "accepted" not in used.__getstate__()
        assert pickle.dumps(used) == pickle.dumps(code())
        clone = pickle.loads(pickle.dumps(used))
        assert clone.accepted == set()
        clone.check("43")
        assert clone.accepted == {"43"}
