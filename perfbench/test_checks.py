"""The benchmark's checks reject corrupted results and accept good ones.

    python3 -m pytest perfbench/test_checks.py

Each good result is written out by hand from the closed forms, so these
tests run without innerproj.
"""

import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

P = 32003
M1 = P - 1  # -1 mod P


# -- project-generic ------------------------------------------------------------

RNC5 = {"degree": 5, "codim": 4}


def good_projection():
    """rnc(5) projected to rnc(4): Eagon-Northcott 6, 8, 3 and numerator
    1 - 6t^2 + 8t^3 - 3t^4."""
    return {
        "report": {"degree_before": 5, "degree_after": 4, "codim_before": 4,
                   "codim_after": 3, "beta02_before": 10, "beta02_after": 6,
                   "pd_before": 4, "pd_after": 3, "depth_before": 2, "depth_after": 2},
        "image_ideal_table": {(0, 2): 6, (1, 2): 8, (2, 2): 3},
        "image_quotient_table": {(0, 0): 1, (1, 1): 6, (2, 1): 8, (3, 1): 3},
        "image_hilbert_numerator": (1, 0, -6, 8, -3),
    }


def test_projection_good_result_passes():
    assert checks.check_projection(good_projection(), RNC5) == []
    assert checks.check_same_as_e0(good_projection(), {(0, 2): 6, (1, 2): 8, (2, 2): 3}) == []


def test_projection_betti_entry_off_by_one():
    res = good_projection()
    res["image_ideal_table"][(1, 2)] = 9
    assert checks.check_projection(res, RNC5)
    assert checks.check_same_as_e0(res, good_projection()["image_ideal_table"])


def test_projection_invariant_drops():
    for key, value in (("degree_after", 5), ("codim_after", 4), ("beta02_after", 7),
                       ("pd_after", 4), ("depth_after", 3), ("degree_before", 6)):
        res = good_projection()
        res["report"][key] = value
        assert checks.check_projection(res, RNC5), key


def test_projection_numerator_disagrees_with_the_quotient_table():
    res = good_projection()
    res["image_quotient_table"][(3, 1)] = 2
    assert checks.check_projection(res, RNC5)
    res = good_projection()
    res["image_hilbert_numerator"] = (1, 0, -6, 8, -2)
    assert checks.check_projection(res, RNC5)


def test_closed_forms():
    assert checks.minimal_degree_ideal_table(2) == {(0, 2): 3, (1, 2): 2}
    assert checks.numerator_from_quotient_table(
        checks.quotient_from_ideal_table(checks.minimal_degree_ideal_table(2))) == (1, 0, -3, 2)


# -- mapping-cone ---------------------------------------------------------------

TWO_PLANES = {"cls": "two_planes", "codim": 2, "nvars": 5, "pd": 3, "depth": 2}


def good_cone(family="quotient"):
    ideal = dict(checks.TWO_PLANES_IDEAL_TABLE)
    table = ideal if family == "ideal" else checks.quotient_from_ideal_table(ideal)
    slots = []
    for i in range(checks.CONE_WINDOW):
        for j in range(checks.CONE_WINDOW):
            v = table.get((i, j), 0)
            slots.append((i, j, v, v, 0) if (i + j) % 2 else (i, j, v, 0, v))
    return {"family": family, "slots": slots}


def test_cone_good_results_pass():
    assert checks.check_cone(good_cone("quotient"), TWO_PLANES) == []
    assert checks.check_cone(good_cone("ideal"), TWO_PLANES) == []


def test_cone_wrong_slot_count():
    res = good_cone()
    del res["slots"][-1]
    assert checks.check_cone(res, TWO_PLANES)
    res = good_cone()
    res["slots"].append(res["slots"][0])
    assert checks.check_cone(res, TWO_PLANES)


def test_cone_sides_disagree():
    res = good_cone()
    i, j, lhs, coker, ker = res["slots"][7]
    res["slots"][7] = (i, j, lhs, coker + 1, ker)
    assert checks.check_cone(res, TWO_PLANES)


def test_cone_table_entry_off_by_one():
    res = good_cone("ideal")
    k = next(k for k, s in enumerate(res["slots"]) if s[:2] == (1, 2))
    i, j, lhs, coker, ker = res["slots"][k]
    res["slots"][k] = (i, j, lhs + 1, coker + 1, ker)  # still lhs = coker + ker
    assert checks.check_cone(res, TWO_PLANES)


def test_cone_wrong_depth():
    fx = dict(TWO_PLANES, depth=3)
    assert checks.check_cone(good_cone(), fx)


def test_embedding():
    good = {"maps": [(0, 2, 6, 6), (0, 3, 0, 0), (1, 2, 8, 8), (1, 3, 0, 0),
                     (2, 2, 3, 3), (2, 3, 0, 0)]}
    assert checks.check_embedding(good, 4, 3) == []
    bad = copy.deepcopy(good)
    bad["maps"][2] = (1, 2, 8, 7)
    assert checks.check_embedding(bad, 4, 3)
    bad = copy.deepcopy(good)
    del bad["maps"][-1]
    assert checks.check_embedding(bad, 4, 3)
    bad = copy.deepcopy(good)
    bad["maps"][4] = (2, 2, 4, 4)
    assert checks.check_embedding(bad, 4, 3)


# -- groebner-generic -----------------------------------------------------------
# The twisted cubic: 2x2 minors of [x0 x1 x2; x1 x2 x3].

G1 = {(0, 2, 0, 0): 1, (1, 0, 1, 0): M1}  # x1^2 - x0*x2
G2 = {(0, 1, 1, 0): 1, (1, 0, 0, 1): M1}  # x1*x2 - x0*x3
G3 = {(0, 0, 2, 0): 1, (0, 1, 0, 1): M1}  # x2^2 - x1*x3
GREVLEX = [G1, G2, G3]
# block order, x0 first: x0*x2 - x1^2, x0*x3 - x1*x2, x2^2 - x1*x3
BLOCK = [{(1, 0, 1, 0): 1, (0, 2, 0, 0): M1}, {(1, 0, 0, 1): 1, (0, 1, 1, 0): M1}, G3]


def good_groebner():
    return {
        "gens": [dict(g) for g in GREVLEX],
        "grevlex": [dict(g) for g in GREVLEX],
        "block": [dict(g) for g in BLOCK],
        "elim_gens": [{(0, 2, 0): 1, (1, 0, 1): M1}],
        "image_points": [(t, t * t % P, t ** 3 % P) for t in (2, 3, 12345)],
        "hilbert_numerator": (1, 0, -3, 2),
        "elim_degree": 2,
        "dimension_identity": [(m, m + 1, m + 1) for m in range(9)],
    }


FX = {"degree": 2, "hilbert_numerator": (1, 0, -3, 2)}


def test_groebner_good_result_passes():
    assert checks.check_groebner_job(good_groebner(), FX, P) == []


def test_groebner_dropped_basis_element():
    res = good_groebner()
    del res["grevlex"][1]
    assert checks.check_groebner_job(res, FX, P)
    res = good_groebner()
    del res["block"][2]
    assert checks.check_groebner_job(res, FX, P)


def test_groebner_not_monic_or_not_reduced():
    res = good_groebner()
    res["grevlex"][0] = {k: 2 * v % P for k, v in G1.items()}
    assert checks.check_groebner_job(res, FX, P)
    res = good_groebner()
    # x1*x2 - x0*x3 + (x1^2 - x0*x2): same ideal, but not reduced
    res["grevlex"][1] = {(0, 1, 1, 0): 1, (1, 0, 0, 1): M1, (0, 2, 0, 0): 1, (1, 0, 1, 0): M1}
    assert checks.check_groebner_job(res, FX, P)


def test_groebner_basis_of_a_bigger_ideal():
    res = good_groebner()
    res["block"].append({(0, 0, 0, 2): 1})  # x3^2 is not in the ideal
    assert checks.check_groebner_job(res, FX, P)


def test_groebner_wrong_invariants():
    for key, value in (("hilbert_numerator", (1, 0, -3, 3)), ("elim_degree", 3),
                       ("image_points", [(2, 4, 9)]),
                       ("dimension_identity", [(m, m + 1, m + 1) for m in range(8)])):
        res = good_groebner()
        res[key] = value
        assert checks.check_groebner_job(res, FX, P), key
    res = good_groebner()
    res["dimension_identity"][5] = (5, 6, 7)
    assert checks.check_groebner_job(res, FX, P)


def test_against_reference():
    assert checks.check_against_reference("b", GREVLEX, [dict(g) for g in GREVLEX]) == []
    assert checks.check_against_reference("b", GREVLEX[:2], GREVLEX)
