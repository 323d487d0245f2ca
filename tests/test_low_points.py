"""The model's lowest polar points, checked against two oracles.

The builders read the lowest point of the generic polar at each height off
the least x-exponent in each row of the member (`row_starts_g1`,
`row_starts_g2`, `polar_low_points`).  The generic member itself is the
first oracle: its keys give the row starts, and the keys its terms'
derivatives land on (the keys of `PlaneSeries.polar_layout`) give the
polar's support.
The paper's closed forms, kept in `_oracles`, are the second, over the
model-digest boxes.
"""

from polarnewton.algebra import A, MPoly
from polarnewton.cfrac import continued_fraction, convergents
from polarnewton.curves import generic_member_g1, generic_member_g2, polar, row_starts_g1, row_starts_g2
from polarnewton.genus1 import polar_model_g1
from polarnewton.genus2 import polar_model_g2
from polarnewton.newton import newton_polygon_from_points

from _oracles import lpq_side_points, min_x_exponent, tail_min_x_exponent
from test_model_digests import G1_BOX, G2_BOX

# member builds grow fast with p in genus two; this box takes about 0.7 s on
# a 2-vCPU host
MEMBER_BOX = G1_BOX + [fam for fam in G2_BOX if fam[0] <= 4]


def member_and_model(fam):
    if len(fam) == 2:
        return generic_member_g1(*fam), row_starts_g1(*fam), polar_model_g1(*fam)
    return generic_member_g2(*fam), row_starts_g2(*fam), polar_model_g2(*fam)


def member_row_starts(series, top: int) -> list:
    """The least i among the keys (i, j) of each row j = 0..top, None for an
    empty row."""
    rows = {}
    for i, j in series.terms:
        rows[j] = min(i, rows.get(j, i))
    return [rows.get(j) for j in range(top + 1)]


def polar_support_minima(series, top: int) -> tuple:
    """The least x at each height below `top` among the keys that the terms'
    derivatives land on."""
    low = {}
    for x, j in series.polar_layout:
        low[j] = min(x, low.get(j, x))
    return tuple((low[j], j) for j in range(top))


def test_the_member_box_has_its_size():
    assert len(MEMBER_BOX) == 189 + 119


def test_row_starts_and_low_points_are_read_off_the_member():
    for fam in MEMBER_BOX:
        fam_member, starts, model = member_and_model(fam)
        top = fam[0] * (1 if len(fam) == 2 else 2)
        assert starts == member_row_starts(fam_member.generic, top), fam
        assert model.low_points == polar_support_minima(fam_member.generic, top), fam


def test_2_3_1_reaches_below_the_tail_at_height_2():
    # -2*x^3*y^2 in f1^2 puts -6*a at (2, 2), left of the tail's (3, 2)
    assert tail_min_x_exponent(2, 3, 1, 2) == 3
    assert polar_model_g2(2, 3, 1).low_points[2] == (2, 2)
    assert polar(generic_member_g2(2, 3, 1).generic).coeff(2, 2) == -6 * MPoly.var(A)


def convergent_vertices(p: int, q: int) -> tuple:
    """Polygon vertices from the convergents of q/p, bottom first (p >= 3)."""
    cf = continued_fraction(q, p)
    conv = convergents(cf)
    return tuple([(q - conv[2 * k][1], conv[2 * k][0] - 1) for k in range((cf.s + 1) // 2)] + [(0, p - 1)])


def test_genus_one_models_follow_the_closed_forms():
    for (p, q) in G1_BOX:
        model = polar_model_g1(p, q)
        assert model.low_points == tuple((min_x_exponent(p, q, j), j) for j in range(p)), (p, q)
        if p >= 3:
            vertices = tuple(pts[0] for pts in model.sides) + (model.sides[-1][-1],)
            assert vertices == convergent_vertices(p, q), (p, q)
        assert sum(side.n for side in model.predicted_polygon().sides) == p - 1, (p, q)


def merged_profile_g2(p: int, q: int, d: int) -> list[int]:
    """The least x at each height 0..2p-1 of the tail's closed form, the
    genus-one profile shifted by (q, 0) and the steep side's two points."""
    low = {j: tail_min_x_exponent(p, q, d, j) for j in range(2 * p - 1)}
    for (x, j) in [(0, 2 * p - 1), (q, p - 1)] + [(min_x_exponent(p, q, j) + q, j) for j in range(p)]:
        low[j] = min(x, low.get(j, x))
    return [low[j] for j in range(2 * p)]


def test_genus_two_models_follow_the_closed_forms():
    lowered = {"below p": 0, "above": 0}
    for (p, q, d) in G2_BOX:
        model = polar_model_g2(p, q, d)
        got = [x for x, _j in model.low_points]
        merged = merged_profile_g2(p, q, d)
        # the closed forms give the polygon and every point on it that
        # carries a term; off the polygon a product of two f1 terms other
        # than the vertex x^q can reach further left, at heights 1..p-2 as
        # well as above the steep side's foot
        assert all(x <= y for x, y in zip(got, merged)), (p, q, d)
        assert all(got[j] == merged[j] for _x, j in model.predicted_points()), (p, q, d)
        assert got[-1] == merged[-1] == 0, (p, q, d)
        hull = newton_polygon_from_points([(x, j) for j, x in enumerate(merged)])
        assert hull.vertices() == model.predicted_polygon().vertices(), (p, q, d)
        lowered["below p"] += got[:p] != merged[:p]
        lowered["above"] += got[p:] != merged[p:]
        assert model.sides[-1] == tuple(sorted(lpq_side_points(p, q, 2), key=lambda pt: pt[1])), (p, q, d)
        assert model.predicted_polygon().top == (0, 2 * p - 1), (p, q, d)
    assert lowered == {"below p": 349, "above": 530}
