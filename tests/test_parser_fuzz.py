"""Every text parser refuses a damaged text with BaerCodeError, and nothing else.

Each property starts from a text the library itself writes (a params file, a
share file, a message file, BAERR1 and BAERR2 repair records, a scenario
script, a comma list) and damages one to three of its tokens: it drops,
duplicates or swaps a token, changes a digit, puts in a non-ASCII digit, or
puts in an integer above 2**64.  Whatever the parser makes of the result, an
exception other than BaerCodeError is a failure: the CLI maps BaerCodeError
to exit 2, and anything else is a traceback.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from baercode.encoder import (
    build_data_matrix,
    encode_all,
    format_message,
    format_share,
    parse_message_text,
    parse_share,
)
from baercode.errors import BaerCodeError
from baercode.galois import Field
from baercode.params import format_params_text, parse_params_text
from baercode.repair import format_records, parse_records
from baercode.simnet import parse_int_list, parse_scenario

TOKEN = re.compile(r"[^\s=,:]+")
# Arabic-Indic three, superscript two, circled one, NKo zero, bold nine, fullwidth nine:
# int() reads some of them as digits and refuses the others.
NON_ASCII_DIGITS = "٣²①߀\U0001d7d7９"
SCENARIO = (
    "# a comment\nfail 1\nrepair 1 d=5\ncorrupt random nodes=3 seed=5\n"
    "fail 2\nrepair 2 d=4 helpers=random\ncorrupt consistent_liar nodes=4 seed=7\n"
    "corrupt liar nodes=3,4\ncorrupt honest\nreconstruct 2,3,4\n"
    "fail 5\nrepair 5 d=4 helpers=exclude:1\n"
)


@st.composite
def damaged(draw, text: str) -> str:
    """text with one to three of its tokens damaged."""
    for _ in range(draw(st.integers(1, 3))):
        spans = [m.span() for m in TOKEN.finditer(text)]
        if not spans:
            break
        a, b = draw(st.sampled_from(spans))
        tok = text[a:b]
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "digit", "non_ascii", "huge")))
        if op == "drop":
            tok = ""
        elif op == "duplicate":
            tok = tok + draw(st.sampled_from((" ", ",", "\n", "="))) + tok
        elif op == "swap":
            c, e = draw(st.sampled_from(spans))
            if (c, e) != (a, b):
                (a, b), (c, e) = sorted(((a, b), (c, e)))
                text = text[:a] + text[c:e] + text[b:c] + text[a:b] + text[e:]
            continue
        elif op == "digit":
            i = draw(st.integers(0, len(tok) - 1))
            tok = tok[:i] + str(draw(st.integers(0, 9))) + tok[i + 1:]
        elif op == "non_ascii":
            i = draw(st.integers(0, len(tok)))
            tok = tok[:i] + draw(st.sampled_from(NON_ASCII_DIGITS)) + tok[i:]
        else:
            tok = str(2**64 + draw(st.integers(0, 2**70)))
        text = text[:a] + tok + text[b:]
    return text


def refuses_or_parses(parse, text):
    """parse(text), or None when it raises BaerCodeError; any other error escapes."""
    try:
        return parse(text)
    except BaerCodeError:
        return None


FUZZ = settings(deadline=None, derandomize=True, max_examples=300)


@pytest.fixture(scope="module")
def ex3_world(ex3_code):
    fld = Field(17)
    rng = random.Random(3)
    message = [rng.randrange(fld.p) for _ in range(ex3_code.f_mbr)]
    shares = encode_all(build_data_matrix(message, ex3_code, fld), ex3_code, fld)
    return ex3_code, fld, message, shares


def test_parse_params_text(ex3_code):
    text = "# ex3\n" + format_params_text(ex3_code.params, 17)

    @FUZZ
    @given(damaged(text))
    def prop(bad):
        refuses_or_parses(parse_params_text, bad)

    assert parse_params_text(text) == (ex3_code.params, 17)
    prop()


def test_parse_share(ex3_world):
    code, fld, _, shares = ex3_world
    text = format_share(shares[1], code, fld, "1")

    @FUZZ
    @given(damaged(text))
    def prop(bad):
        refuses_or_parses(lambda t: parse_share(t, code, fld), bad)

    assert parse_share(text, code, fld) == shares[1]
    prop()


def test_parse_message_text(ex3_world):
    code, fld, message, _ = ex3_world
    text = format_message(message)

    @FUZZ
    @given(damaged(text))
    def prop(bad):
        refuses_or_parses(lambda t: parse_message_text(t, code.f_mbr, fld.p), bad)

    assert parse_message_text(text, code.f_mbr, fld.p) == tuple(message)
    prop()


@pytest.mark.parametrize("scheme, code_name, d", [("1", "ex3_code", 4), ("2", "a12_code", 5)])
def test_parse_records(request, scheme, code_name, d):
    code = request.getfixturevalue(code_name)
    payload = tuple(range(3, 3 + code.beta_of(d)))
    text = format_records(scheme, 2, 6, d, payload, code)

    @FUZZ
    @given(damaged(text))
    def prop(bad):
        refuses_or_parses(lambda t: parse_records(t, code), bad)

    assert parse_records(text, code) == (scheme, 2, 6, d, payload)
    prop()


def test_parse_scenario():
    @FUZZ
    @given(damaged(SCENARIO))
    def prop(bad):
        refuses_or_parses(parse_scenario, bad)

    assert len(parse_scenario(SCENARIO)) == 11
    prop()


def test_parse_int_list():
    @FUZZ
    @given(damaged("1,2,5,10"))
    def prop(bad):
        refuses_or_parses(parse_int_list, bad)

    assert parse_int_list("1,2,5,10") == (1, 2, 5, 10)
    prop()
