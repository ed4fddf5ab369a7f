"""Round-trip and validation tests for the JSON instance format."""

from fractions import Fraction

import pytest

from incgeo.errors import ParseError
from incgeo.forge import build_instance
from incgeo.instfile import (
    MAX_DEGREE,
    MAX_TERMS,
    IncidenceInstance,
    dumps_instance,
    format_rational,
    instance_to_obj,
    load_instance,
    obj_to_instance,
    obj_to_poly,
    parse_rational,
    poly_to_obj,
    save_instance,
)
from incgeo.poly import variables

X, Y, Z = variables(3)
F = Fraction


class TestRationals:
    def test_round_trip(self):
        for q in (F(0), F(3), F(-7, 2), F(10**9, 7)):
            assert parse_rational(format_rational(q)) == q

    def test_integer_form_has_no_slash(self):
        assert format_rational(F(4, 2)) == "2"

    @pytest.mark.parametrize(
        "bad", ["1/0", "abc", "", "1.5e3x", 12, None, ["1"], "1e2000000", "1.5", " 3", "+3"]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)


class TestPolySerialization:
    def test_round_trip(self):
        p = X**2 * Z - Y**3 + F(5, 3) * X - 7
        assert obj_to_poly(poly_to_obj(p), 3) == p

    def test_terms_sorted_for_determinism(self):
        p = X + Z + Y
        q = Z + Y + X
        assert poly_to_obj(p) == poly_to_obj(q)

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
            obj_to_poly(obj, 3)

    def test_degree_cap_is_inclusive(self):
        p = obj_to_poly({"terms": [{"n": 1, "d": 1, "e": [1, MAX_DEGREE - 2, 1]}]}, 3)
        assert p.degree() == MAX_DEGREE

    def test_term_cap_is_inclusive(self):
        terms = [{"n": 1, "d": 1, "e": [k, 0, 1]} for k in range(MAX_TERMS + 1)]
        assert len(obj_to_poly({"terms": terms[:MAX_TERMS]}, 3).terms) == MAX_TERMS
        with pytest.raises(ParseError, match="exceeds the cap"):
            obj_to_poly({"terms": terms}, 3)


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

    def test_surface_must_pair_with_dim_three(self):
        inst = build_instance("cone", 3, 4, seed=0)
        obj = instance_to_obj(inst)
        obj["dim"] = 4
        with pytest.raises(ParseError):
            obj_to_instance(obj)
