"""The text parsers on arbitrary input: a value or a ValueError, nothing else.

FieldError, SpecError and CatalogError are ValueErrors, and the CLI turns a
ValueError into exit code 1, so any other exception type is a crash.
"""

from hypothesis import given, settings, strategies as st

from mfann.fields import PrimeField, Rationals, parse_field_flag
from mfann.mf import catalog_labels, parse_selector
from mfann.poly import parse_poly

F13 = PrimeField(13, 5)
QQ = Rationals()
VARS = ("x", "y", "z")
RINGS = ("a-inf-1", "a-inf-2", "d-inf-1", "d-inf-2")

# Text near the grammar (its tokens in any order) and arbitrary unicode.
near = st.text(alphabet="xyzwn0123456789+-*/^:=?._ \tiqfp٣", max_size=24)
text = near | st.text(max_size=16)
labels = [label for ring in RINGS for label, _parametric in catalog_labels(ring)]


def parses_or_value_error(parse, s):
    try:
        parse(s)
    except ValueError:
        pass


@settings(max_examples=400, deadline=None)
@given(text, st.sampled_from([F13, QQ]))
def test_parse_poly_fuzz(s, field):
    parses_or_value_error(lambda t: parse_poly(t, VARS, field), s)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(RINGS) + ["", "a-inf-"]), st.sampled_from(labels + [""]),
       st.sampled_from(["", "?n=", "?n=0", "?n=3", "?m=1", "?"]), text)
def test_parse_selector_fuzz(ring, label, query, tail):
    for s in (f"{ring}/{label}{query}{tail}", tail):
        parses_or_value_error(parse_selector, s)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "fp:", "fp:13", "fp:13:i=", "fp:17:", "q"]), text)
def test_parse_field_flag_fuzz(prefix, tail):
    for s in (prefix + tail, tail):
        parses_or_value_error(parse_field_flag, s)
