"""Acceptance suite: one test per shipped guarantee, with explicit budgets.

Each test is independently runnable and prints as its own pass/fail line
under pytest -v.  Wall-clock budgets are asserted inside the tests that
carry one; everything else is exact arithmetic with hand-derived oracles.
"""

import random
import time
from fractions import Fraction

import pytest

from incgeo.forge import (
    ORIGIN,
    WHITNEY_SINGULAR_AXIS,
    build_instance,
    lift_to_dim,
    make_lines,
    make_surface,
    place_points,
)
from incgeo.incidence import (
    check_meeting_cap,
    conical_incidence_count,
    count_incidences,
    decompose_lines,
    prune_points,
    rhs_gk,
    rhs_main,
    rhs_planes,
    rhs_st,
    verify_bound,
)
from incgeo.instfile import IncidenceInstance
from incgeo.linespace import (
    AffLine,
    ProjPoint,
    RelationKind,
    coplanar_triple,
    klein_form,
    line_on_surface,
    line_relation,
    plucker_from_points,
)
from incgeo.poly import divides, variables
from incgeo.projection import project_to_3space
from incgeo.exceptional import check_firstflip, exceptional_lines
from incgeo.surfaces import (
    Verdict,
    classify_component,
    flecnode_polynomial,
    ruled_indicator,
)

X, Y, Z = variables(3)
CONE = X**2 + Y**2 - Z**2
SPHERE = X**2 + Y**2 + Z**2 - 1
WHITNEY = X**2 - Y**2 * Z
CUSP_CUBIC = X**2 * Z - Y**3
FERMAT_CUBIC = X**3 + Y**3 + Z**3 - 1

F = Fraction


def _random_proj_point(rng: random.Random) -> ProjPoint:
    while True:
        coords = tuple(
            F(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(4)
        )
        if any(coords):
            return ProjPoint(coords)


def test_c01_klein_quadric_exactness():
    """1000 seeded point pairs: the Plucker vector satisfies the Klein
    relation exactly, inside one second."""
    rng = random.Random(20260819)
    started = time.perf_counter()
    checked = 0
    while checked < 1000:
        p = _random_proj_point(rng)
        q = _random_proj_point(rng)
        if p == q:
            continue
        ln = plucker_from_points(p, q)
        assert klein_form(ln, ln) == 0
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"klein check took {elapsed:.3f}s"


def test_c02_sphere_ruled_indication():
    """The sphere is flagged complex-ruled by the indicator yet classified
    as not ruled over the reals."""
    started = time.perf_counter()
    indication = ruled_indicator(SPHERE)
    assert indication.indicated
    assert indication.complex_only
    result = classify_component(SPHERE)
    assert result.verdict is Verdict.NOT_RULED_REAL
    assert result.complex_ruled_indicated
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"sphere check took {elapsed:.3f}s"


def test_c03_flecnode_divisibility_split():
    """The cubic cone's flecnode witness is divisible by the surface; the
    smooth cubic's is not.  Sixty-second budget per witness."""
    started = time.perf_counter()
    ruled_witness = flecnode_polynomial(CUSP_CUBIC)
    first = time.perf_counter() - started
    assert first < 60.0, f"ruled-cubic witness took {first:.1f}s"
    assert divides(CUSP_CUBIC, ruled_witness)

    started = time.perf_counter()
    smooth_witness = flecnode_polynomial(FERMAT_CUBIC)
    second = time.perf_counter() - started
    assert second < 60.0, f"smooth-cubic witness took {second:.1f}s"
    assert not divides(FERMAT_CUBIC, smooth_witness)


def test_c04_flecnode_degree_cap():
    """Witness degree stays within 11*degree - 18 on both cubic fixtures."""
    cap = 11 * 3 - 18
    assert flecnode_polynomial(CUSP_CUBIC).degree() <= cap
    assert flecnode_polynomial(FERMAT_CUBIC).degree() <= cap


def test_c05_exceptional_line_cap():
    """The Whitney cubic's exceptional set is exactly its singular axis,
    and no generated family ever exceeds two exceptional lines."""
    with_axis = make_lines("whitney", 12, include_exceptional=True)
    found = exceptional_lines(WHITNEY, with_axis)
    assert found == [WHITNEY_SINGULAR_AXIS]
    for size, flag in ((6, False), (10, False), (12, True), (16, True)):
        family = make_lines("whitney", size, include_exceptional=flag)
        result = exceptional_lines(WHITNEY, family)
        assert len(result) <= 2
        assert (WHITNEY_SINGULAR_AXIS in result) == flag


def _transversal_probe(rng: random.Random, factor, family) -> AffLine:
    while True:
        carrier = family[rng.randrange(len(family))]
        base = carrier.point_at(F(rng.randint(-8, 8), rng.randint(1, 4)))
        direction = tuple(rng.randint(-4, 4) for _ in range(3))
        if not any(direction):
            continue
        probe = AffLine(base, direction)
        if not line_on_surface(factor, probe):
            return probe


def test_c06_generator_count_sums():
    """Fifty seeded probe lines against the Whitney and cone families:
    every generator-count sum stays within the factor degree, in ten
    seconds."""
    started = time.perf_counter()
    rng = random.Random(606)
    suites = (
        (WHITNEY, make_lines("whitney", 9, include_exceptional=True), None),
        (CONE, make_lines("cone", 8), ORIGIN),
    )
    probes_ran = 0
    for factor, family, apex in suites:
        degree = factor.degree()
        exceptional = exceptional_lines(factor, family)
        contained = [
            ln for ln in family
            if line_on_surface(factor, ln) and ln not in exceptional
        ]
        for ln in contained[:9]:
            report = check_firstflip(factor, ln, family, exceptional, apex=apex)
            assert report.ok and report.total <= degree
            probes_ran += 1
        for _ in range(10):
            probe = _transversal_probe(rng, factor, contained)
            report = check_firstflip(factor, probe, family, exceptional, apex=apex)
            assert report.ok and report.total <= degree
            probes_ran += 1
        for k in range(1, 8):
            probe = AffLine((30 + k, -40 - k, 7), (1, 1, 3 * k))
            meets_family = any(
                line_relation(probe, other).kind is RelationKind.INTERSECTING
                for other in contained
            )
            report = check_firstflip(factor, probe, family, exceptional, apex=apex)
            assert report.ok and report.total <= degree
            if not meets_family:
                assert report.total == 0
            probes_ran += 1
    assert probes_ran >= 50
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"generator-count probes took {elapsed:.1f}s"


def _product_instance(n_lines: int):
    surface = make_surface("product")
    lines = make_lines("product", n_lines, include_exceptional=True)
    points = set()
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            rel = line_relation(a, b)
            if rel.kind is RelationKind.INTERSECTING:
                points.add(rel.point)
    return surface, lines, sorted(points)


def test_c07_meeting_cap_on_product_suite():
    """On the degree-7 triple product with 200 lines, every generic line
    meets at most 4*7 = 28 others non-conically at kept points; the looser
    advertised 36 follows.  Thirty-second budget."""
    started = time.perf_counter()
    surface, lines, points = _product_instance(200)
    assert len(lines) == 200
    decomp = decompose_lines(IncidenceInstance(surface, points, lines))
    for threshold in (4, 3):
        kept = prune_points(decomp, min_incidences=threshold)
        worst = check_meeting_cap(decomp, kept)
        assert worst <= 4 * surface.degree == 28
        assert worst <= 36
    kept3 = prune_points(decomp, min_incidences=3)
    assert kept3, "threshold-3 pruning should keep the triple points"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"meeting-cap suite took {elapsed:.1f}s"


def _conical_suite():
    cone_inst = build_instance("cone", 12, 40, seed=21)
    cone_with_apex = IncidenceInstance(
        cone_inst.surface, list(cone_inst.points) + [ORIGIN], cone_inst.lines
    )
    surface, lines, points = _product_instance(40)
    product_inst = IncidenceInstance(surface, points, lines)
    plain = build_instance("regulus", 14, 30, seed=22)
    whitney = build_instance("whitney", 11, 25, seed=23, include_exceptional=True)
    return (cone_with_apex, product_inst, plain, whitney)


def test_c08_conical_incidence_cap():
    """Conical incidences never exceed the generic line count, including on
    instances that contain the apex itself."""
    saw_positive = False
    for inst in _conical_suite():
        decomp = decompose_lines(inst)
        conical = conical_incidence_count(decomp)
        assert conical <= len(decomp.generic)
        if conical:
            saw_positive = True
    assert saw_positive, "suite should exercise a nonzero conical count"


def test_c09_bound_ratio_on_seeded_instances():
    """Twenty-five seeded plane-free instances stay within 4x the main
    bound, and the cone reference instance reproduces the hand-computed
    ratio 0.53 +/- 0.01 against rhs 377.8.  Two-minute budget."""
    started = time.perf_counter()
    kinds = ("cone", "regulus", "whitney", "product")
    for k in range(25):
        kind = kinds[k % 4]
        n = min(10 + 8 * k, 200)
        m = min(30 + 20 * k, 500)
        inst = build_instance(kind, n, m, seed=100 + k)
        report = verify_bound(inst, degree=inst.surface.degree)
        assert report.within, (
            f"instance {k} ({kind}, m={m}, n={n}) ratio {report.ratio_main:.3f}"
        )
        assert report.ratio_main <= 4.0
    reference = build_instance("cone", 20, 200, seed=3)
    report = verify_bound(reference, degree=2, s=2)
    assert abs(report.rhs_main - 377.8) < 0.1
    assert abs(report.ratio_main - 0.53) <= 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"bound-ratio suite took {elapsed:.1f}s"


def test_c10_projection_certification():
    """500 seeded lift-then-project trials preserve m, n and the incidence
    count exactly, keep non-coplanar triples non-coplanar, and never need
    more than three resamples per step.  Two-minute budget."""
    started = time.perf_counter()
    kinds = ("cone", "regulus", "whitney", "product")
    for trial in range(500):
        kind = kinds[trial % 4]
        n = 3 + trial % 3
        m = 5 + trial % 5
        inst = build_instance(kind, n, m, seed=trial)
        target = 4 + trial % 2
        lifted = IncidenceInstance(None, *lift_to_dim(inst.points, inst.lines, target, seed=trial))
        pts3, lns3, cert = project_to_3space(lifted.scaled, lifted.lattices, seed=trial + 1)
        back = IncidenceInstance.from_forms(None, pts3, lns3)
        steps = target - 3
        assert cert.ok
        assert cert.resamples_used <= 3 * steps
        assert back.m == inst.m and back.n == inst.n
        assert count_incidences(back.points, back.lines) == count_incidences(
            inst.points, inst.lines
        )
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                for k in range(j + 1, inst.n):
                    if not coplanar_triple(inst.lines[i], inst.lines[j], inst.lines[k]):
                        assert not coplanar_triple(back.lines[i], back.lines[j], back.lines[k])
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"projection suite took {elapsed:.1f}s"


def test_c11_evaluator_spot_values():
    """Closed-form bound evaluators against hand-arithmetic oracles."""
    assert abs(rhs_st(4, 4) - 14.3496) < 1e-3
    assert abs(rhs_gk(16, 16, 2) - 84.158) < 1e-3
    assert abs(rhs_main(100, 100, 4, 4) - 486.177) < 1e-3
    assert rhs_planes(8, 8, 0) == 24.0


def test_c12_double_counting_identity():
    """Summing incidences by line and by point gives the same exact total
    on every suite instance."""
    instances = list(_conical_suite()) + [
        build_instance("regulus", 9, 21, seed=31),
        build_instance("product", 19, 25, seed=3),
        IncidenceInstance(None, [], []),
    ]
    for inst in instances:
        total = count_incidences(inst.points, inst.lines)
        assert sum(len(on) for on in inst.points_on) == total
        assert sum(len(through) for through in inst.lines_at) == total
