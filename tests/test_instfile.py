"""Round-trip and validation tests for the JSON instance format.

The coordinates are read straight into integer forms and written back from
them by incgeo.lattice, and each surface factor into its integer form by
incgeo.instfile; fileref holds the Fraction readers and writer they are
checked against.
"""

from fractions import Fraction

import pytest
from fileref import obj_to_poly, obj_to_vector, parse_rational, vector_to_obj
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeo.errors import DegenerateLineError, DomainError, ParseError
from incgeo.forge import build_instance
from incgeo.instfile import (
    MAX_DEGREE,
    MAX_DIM,
    MAX_TERMS,
    IncidenceInstance,
    dumps_instance,
    instance_to_obj,
    form_to_obj,
    load_instance,
    obj_to_form,
    obj_to_instance,
    save_instance,
)
from incgeo.lattice import line_strings, point_strings, read_line, read_point, scaled_form
from incgeo.linespace import AffLine
from incgeo.poly import Poly, variables

X, Y, Z = variables(3)
F = Fraction

# past Python's 4,300-digit limit on int string conversion, which Fraction
# hits too
LONG = "1" * 4301


class TestRationals:
    def test_round_trip(self):
        for q in (F(0), F(3), F(-7, 2), F(10**9, 7)):
            assert read_point([str(q)], 1) == scaled_form((q,))
            assert point_strings(read_point([str(q)], 1)) == [str(q)]

    def test_integer_form_has_no_slash(self):
        assert point_strings(read_point(["4/2"], 1)) == ["2"]

    @pytest.mark.parametrize(
        "bad", ["1/0", "abc", "", "1.5e3x", 12, None, ["1"], "1e2000000", "1.5", " 3", "+3"]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            read_point([bad], 1)


def outcome(read):
    """read()'s value, or the message of the ParseError it raised."""
    try:
        return read()
    except ParseError as exc:
        return f"ParseError: {exc}"


def rationals(max_digits=40):
    big = 10**max_digits
    return st.builds(F, st.integers(-big, big), st.integers(1, big))


@st.composite
def rational_vectors(draw):
    dim = draw(st.integers(3, 16))
    return [draw(rationals()) for _ in range(dim)]


class TestCoordinateStrings:
    @settings(max_examples=200, deadline=None)
    @given(rational_vectors())
    def test_points_round_trip_byte_for_byte(self, v):
        text = vector_to_obj(v)
        assert read_point(text, len(v)) == scaled_form(v)
        assert point_strings(read_point(text, len(v))) == text

    @settings(max_examples=200, deadline=None)
    @given(rational_vectors(), st.data())
    def test_lines_round_trip_byte_for_byte(self, base, data):
        direction = data.draw(st.lists(rationals(), min_size=len(base), max_size=len(base)).filter(any))
        ln = AffLine(base, direction)
        lattice = read_line(vector_to_obj(base), vector_to_obj(direction), len(base))
        assert lattice == ln.lattice
        assert line_strings(lattice) == (vector_to_obj(ln.base), vector_to_obj(ln.direction))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(0, 10**3)), min_size=3, max_size=6))
    def test_unreduced_strings_read_as_the_reference_reads_them(self, pairs):
        # leading zeros, "-0", unreduced and zero denominators
        text = [f"{n:04d}/{d}" if d % 2 else f"{n}/{d}" for n, d in pairs]
        expected = outcome(lambda: scaled_form(obj_to_vector(text, len(text))))
        assert outcome(lambda: read_point(text, len(text))) == expected
        if not isinstance(expected, str):
            assert point_strings(read_point(text, len(text))) == vector_to_obj(obj_to_vector(text, len(text)))

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.text(alphabet="0123456789/-+ .e_x\n", max_size=8),
        st.sampled_from([LONG, "-" + LONG[1:], "1/" + LONG, LONG[1:] + "/7", "0" * 4301]),
        st.integers(), st.none(), st.lists(st.just("1"), max_size=1),
    ))
    def test_every_string_reads_as_the_reference_reads_it(self, text):
        # the same value, or a ParseError with the same message
        expected = outcome(lambda: (scaled_form((parse_rational(text), F(1), F(0)))))
        assert outcome(lambda: read_point([text, "1", "0"], 3)) == expected

    def test_wrong_lengths_read_as_the_reference_reads_them(self):
        for obj in (["1", "2"], ["1"] * 4, "123", None, {"x": "1"}):
            expected = outcome(lambda: obj_to_vector(obj, 3))
            assert outcome(lambda: read_point(obj, 3)) == expected
            assert outcome(lambda: read_line(["0"] * 3, obj, 3)) == expected

    def test_zero_direction_is_the_affline_error(self):
        with pytest.raises(DegenerateLineError, match="zero direction vector"):
            AffLine((0, 0, 0), (0, 0, 0))
        with pytest.raises(DegenerateLineError, match="zero direction vector"):
            read_line(["1", "2", "3"], ["0", "-0", "0/5"], 3)


def poly_outcome(read):
    """The terms of the Poly read(), in order, or the type and text of the
    error it raised."""
    try:
        return list(read().terms.items())
    except (ParseError, DomainError) as exc:
        return type(exc).__name__, str(exc)


HUGE = 10**60


@st.composite
def polynomial_objects(draw):
    """Term lists with zero coefficients, negative or repeated exponents,
    huge or bad numerators and denominators, and degrees and term counts
    at the caps."""
    size = draw(st.one_of(st.integers(0, 6), st.integers(MAX_TERMS - 1, MAX_TERMS + 1)))
    entry = st.one_of(st.integers(0, 3), st.integers(18, MAX_DEGREE // 2 + 2), st.just(-1))
    exponents = draw(st.lists(st.tuples(entry, entry, entry), min_size=size, max_size=size,
                              unique=draw(st.booleans())))
    numerator = st.one_of(st.integers(-3, 3), st.integers(-HUGE, HUGE))
    denominator = st.one_of(st.integers(1, 12), st.integers(1, HUGE), st.integers(-2, 0))
    terms = [{"n": draw(numerator), "d": draw(denominator), "e": list(e)} for e in exponents]
    return {"terms": terms}


def read_poly(obj, nvars):
    """The Poly view of the integer form read from a polynomial object."""
    return Poly.from_form(nvars, obj_to_form(obj, nvars))


class TestPolySerialization:
    def test_round_trip(self):
        p = X**2 * Z - Y**3 + F(5, 3) * X - 7
        assert obj_to_form(form_to_obj(p.form), 3) == p.form
        assert read_poly(form_to_obj(p.form), 3) == p

    def test_terms_sorted_for_determinism(self):
        p = X + Z + Y
        q = Z + Y + X
        assert form_to_obj(p.form) == form_to_obj(q.form)

    @pytest.mark.parametrize(
        "obj",
        [
            {"terms": [{"n": 1, "d": 0, "e": [0, 0, 0]}]},
            {"terms": [{"n": 1, "d": -2, "e": [0, 0, 0]}]},
            {"terms": [{"n": "1", "d": 1, "e": [0, 0, 0]}]},
            {"terms": [{"n": 1, "d": 1, "e": [0, 0]}]},
            {"terms": [{"n": 1, "d": 1}]},
            {"terms": [{"n": 1, "d": 1, "e": [0, 0, 0]}, {"n": 2, "d": 1, "e": [0, 0, 0]}]},
            {"terms": {}},
            [],
            {"terms": [{"n": True, "d": 1, "e": [0, 0, 0]}]},
            {"terms": [{"n": 1, "d": True, "e": [0, 0, 0]}]},
            {"terms": [{"n": 1, "d": 1, "e": [True, 0, 0]}]},
            {"terms": [{"n": 1, "d": 1, "e": [0, MAX_DEGREE + 1, 0]}]},
            {"terms": [{"n": 1, "d": 1, "e": [0, 0, 0]}, {"n": 1, "d": 1, "e": [40, 0, 40]}]},
        ],
    )
    def test_rejects_malformed_polynomials(self, obj):
        with pytest.raises(ParseError):
            obj_to_form(obj, 3)

    def test_degree_cap_is_inclusive(self):
        p = read_poly({"terms": [{"n": 1, "d": 1, "e": [1, MAX_DEGREE - 2, 1]}]}, 3)
        assert p.degree() == MAX_DEGREE

    def test_term_cap_is_inclusive(self):
        terms = [{"n": 1, "d": 1, "e": [k, 0, 1]} for k in range(MAX_TERMS + 1)]
        assert len(obj_to_form({"terms": terms[:MAX_TERMS]}, 3)[0]) == MAX_TERMS
        with pytest.raises(ParseError, match="exceeds the cap"):
            obj_to_form({"terms": terms}, 3)

    @settings(max_examples=300, deadline=None)
    @given(polynomial_objects())
    def test_reader_matches_the_fraction_oracle(self, obj):
        # the same Poly view, term order included, or the same error type
        # and text; and the form read is the oracle's Poly's
        expected = poly_outcome(lambda: obj_to_poly(obj, 3))
        assert poly_outcome(lambda: read_poly(obj, 3)) == expected
        if isinstance(expected, list):
            assert obj_to_form(obj, 3) == obj_to_poly(obj, 3).form




class TestInstanceFiles:
    def test_surface_instance_round_trip(self, tmp_path):
        inst = build_instance("product", 12, 18, seed=4)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.points == inst.points
        assert back.lines == inst.lines
        assert back.surface is not None
        assert back.surface.factors == inst.surface.factors
        assert back.surface.factors == inst.surface.factors

    def test_lifted_instance_round_trip(self, tmp_path):
        inst = build_instance("regulus", 6, 10, seed=2, dim=5)
        path = tmp_path / "lift.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.surface is None
        assert back.dim == 5
        assert back.points == inst.points
        assert back.lines == inst.lines

    def test_serialization_is_stable(self):
        inst = build_instance("cone", 5, 9, seed=1)
        text = dumps_instance(inst)
        again = dumps_instance(obj_to_instance(instance_to_obj(inst)))
        assert text == again

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_instance(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ParseError):
            load_instance(path)

    @pytest.mark.parametrize(
        "text", ['{"dim": ' + "9" * 5000 + "}", "[" * 100000 + "]" * 100000],
        ids=["oversized-integer", "deep-nesting"],
    )
    def test_json_the_decoder_refuses(self, tmp_path, text):
        path = tmp_path / "hostile.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError):
            load_instance(path)

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {"dim": 2, "surface": None, "points": [], "lines": []},
            {"dim": "3", "surface": None, "points": [], "lines": []},
            {"dim": 3, "surface": None, "points": {}, "lines": []},
            {"dim": 3, "surface": None, "points": [["1", "2"]], "lines": []},
            {"dim": 3, "surface": None, "points": [], "lines": [["bad"]]},
            {"dim": 3, "surface": None, "points": [],
             "lines": [{"base": ["0", "0", "0"], "dir": ["0", "0"]}]},
            {"dim": 4, "surface": {"vars": 3, "factors": []}, "points": [], "lines": []},
            {"dim": 3, "surface": {"vars": 2, "factors": []}, "points": [], "lines": []},
        ],
    )
    def test_rejects_malformed_instances(self, obj):
        with pytest.raises(ParseError):
            obj_to_instance(obj)

    def test_dimension_cap(self):
        def obj(dim):
            return {"dim": dim, "surface": None, "points": [["0"] * dim], "lines": []}

        assert obj_to_instance(obj(MAX_DIM)).dim == MAX_DIM
        with pytest.raises(ParseError, match=f"dimension {MAX_DIM + 1} exceeds the cap"):
            obj_to_instance(obj(MAX_DIM + 1))

    def test_surface_must_pair_with_dim_three(self):
        inst = build_instance("cone", 3, 4, seed=0)
        obj = instance_to_obj(inst)
        obj["dim"] = 4
        with pytest.raises(ParseError):
            obj_to_instance(obj)


class TestContainmentOnLattices:
    """The instance tests each line against the surface by lattice's integer
    restriction, read off the line's lattice; linespace.line_on_surface,
    by restrict_to_line on Fractions, is the reference."""

    @settings(max_examples=100, deadline=None)
    @given(rationals(3).filter(bool), st.sampled_from([F(0), F(1, 7), F(-5, 3)]))
    def test_agrees_with_the_fraction_restriction(self, c, shift):
        from incgeo.lattice import lattice_on_surface
        from incgeo.linespace import line_on_surface
        from incgeo.zpoly import Surface

        # a ruling of z = xy and a line of the Whitney cubic x^2 = y^2 z, both
        # with a rational base, and the same lines moved off by shift
        regulus, whitney = Z - X * Y, X**2 - Y**2 * Z
        for f, ln in ((regulus, AffLine((0, c, shift), (1, 0, c))),
                      (whitney, AffLine((shift, 0, c * c), (c, 1, 0)))):
            on = lattice_on_surface(f.form, ln.lattice)
            assert on == line_on_surface(f, ln) == (shift == 0)
            if on:
                assert IncidenceInstance(Surface([f]), [], [ln]).containing == ((0,),)
            else:
                with pytest.raises(DomainError, match="misses the surface"):
                    IncidenceInstance(Surface([f]), [], [ln])
