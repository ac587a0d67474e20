"""pieces.json and family.csv written from the piece table, byte for byte.

The reference bytes are those of ``write_json`` on the descriptor of every
piece (``json.dumps(..., indent=2, sort_keys=True)``) and of ``write_csv`` on
``family.rows()``, which read the pieces one TaggedPair view at a time; the
table's own are ``family_to_json`` and ``family_to_csv``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_refs import DyadicCube, cousin_decompose

from stokeslab import reports
from stokeslab.cli import _build_current
from stokeslab.cousin import (
    Gauge,
    RegularityFn,
    SubadditiveFn,
    TaggedFamily,
    TaggedPair,
    gauge_decompose,
)
from stokeslab.currents import ChartCurrent, ChartMap, Rect, TopDimCurrent
from stokeslab.dyadic import CubeSet, ExceptionalSet, RootBox

COLUMNS = ["piece_id", "tag", "diam", "mass", "boundary_mass", "reg", "delta_at_tag",
           "eta_at_tag"]


def _assert_same_bytes(family, tmp_path):
    reports.family_to_json(family, tmp_path / "pieces.json")
    reports.write_json(tmp_path / "expected.json", [p.piece.descriptor() for p in family.pairs])
    assert (tmp_path / "pieces.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
    reports.family_to_csv(family, tmp_path / "family.csv")
    reports.write_csv(tmp_path / "expected.csv", family.rows(), COLUMNS)
    assert (tmp_path / "family.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def _engine_family(name: str):
    unit = _build_current({"kind": "unit_square"})
    eta, mass = RegularityFn.constant(0.05), SubadditiveFn.mass()
    if name == "excise_segment":
        segment = ExceptionalSet.segment((0.5, 0.0), (0.5, 1.0))
        gauge = Gauge.distance_to(segment, 0.5).min_with(Gauge.constant(0.2))
        return gauge_decompose(unit, segment, gauge, eta, mass, 5e-2)
    if name == "parabolic_graph":
        return gauge_decompose(_build_current({"kind": name}), ExceptionalSet.empty(),
                               Gauge.constant(0.1), eta, mass, 1e-3)
    if name == "cube-3d":
        domain = DyadicCube(RootBox((0.0, 0.0, 0.0), 1.0), 0, (0, 0, 0))
        gauge = Gauge.distance_to(ExceptionalSet.points([(0.1, 0.2, 0.3)]), 0.5, 0.05)
        return cousin_decompose(domain, gauge, 0.05, theta=-2)
    j = int(name.rsplit("-", 1)[1])
    return gauge_decompose(unit, ExceptionalSet.empty(), Gauge.constant(2.0 ** -j), eta, mass,
                           1e-6)


@pytest.mark.parametrize("name", ["excise_segment", "parabolic_graph", "cube-3d",
                                  *(f"unit-square-{j}" for j in range(7))])
def test_engine_families_write_the_bytes_of_their_descriptors_and_rows(tmp_path, name):
    family = _engine_family(name)
    assert len(family.pairs) > 0
    _assert_same_bytes(family, tmp_path)


def test_an_empty_family_writes_empty_files(tmp_path):
    family = TaggedFamily(_build_current({"kind": "unit_square"}), (), (), 0.0, "mass", 0.0)
    _assert_same_bytes(family, tmp_path)
    assert (tmp_path / "pieces.json").read_text() == "[]\n"


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _cube_pairs(draw):
    """Gathered cube pieces: several cubes to a piece, on roots of their own."""
    m = draw(st.integers(1, 3))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        corner = tuple(draw(st.floats(-1e3, 1e3)) for _ in range(m))
        root = RootBox(corner, draw(st.sampled_from([1, 0.5, 3.0, 1e-3, 2.5e7])))
        gens, indices = [], []
        for _ in range(draw(st.integers(1, 5))):
            g = draw(st.integers(0, 5))
            indices.append(tuple(draw(st.integers(0, 2 ** g - 1)) for _ in range(m)))
            gens.append(g)
        piece = TopDimCurrent(CubeSet.of(root, gens, indices), draw(st.sampled_from([1, -1, 3])))
        tag = tuple(draw(_FLOATS) for _ in range(m))
        pairs.append(TaggedPair(tag, piece, *(draw(_FLOATS) for _ in range(6))))
    return pairs


def _chart(name: str) -> ChartMap:
    return ChartMap(lambda x, y: 0.0 * x, lambda x, y: (0.0 * x, 0.0 * x), 1.0, name=name)


@st.composite
def _chart_pairs(draw):
    """Gathered chart pieces over rectangles, on charts with names to escape."""
    charts = [_chart(name) for name in ("", "flat", 'quote " and \\ é')]
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        x0, y0 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
        w, h = draw(st.floats(1e-3, 5.0)), draw(st.sampled_from([1, 0.25, 1.5]))
        piece = ChartCurrent(Rect(x0, x0 + w, y0, y0 + h), draw(st.sampled_from(charts)),
                             draw(st.sampled_from([1, -2])))
        pairs.append(TaggedPair(tuple(draw(_FLOATS) for _ in range(3)), piece,
                                *(draw(_FLOATS) for _ in range(6))))
    return pairs


@given(st.one_of(_cube_pairs(), _chart_pairs()))
@settings(max_examples=150, deadline=None)
def test_gathered_families_write_the_bytes_of_their_descriptors_and_rows(tmp_path_factory, pairs):
    family = TaggedFamily(_build_current({"kind": "unit_square"}), pairs, (), 0.0, "mass", 0.0)
    _assert_same_bytes(family, tmp_path_factory.mktemp("family"))


def test_an_integer_root_side_is_written_as_given(tmp_path):
    domain = DyadicCube(RootBox((0, 0), 1), 0, (0, 0))
    family = cousin_decompose(domain, Gauge.constant(0.3), 0.05)
    _assert_same_bytes(family, tmp_path)
    assert '"side": 1\n' in (tmp_path / "pieces.json").read_text()


def test_a_chart_piece_over_a_cube_set_is_refused(tmp_path):
    root = RootBox((0.0, 0.0), 1.0)
    square = ChartCurrent(CubeSet.of(root, [1], [(0, 1)]), _chart("flat"))
    pair = TaggedPair((0.25, 0.75, 0.0), square, *([math.pi] * 6))
    family = TaggedFamily(square, [pair], (), 0.0, "mass", 0.0)
    with pytest.raises(ValueError, match="piece 0 is neither"):
        reports.family_to_json(family, tmp_path / "pieces.json")
    assert not (tmp_path / "pieces.json").exists()


def _family(pairs) -> TaggedFamily:
    return TaggedFamily(_build_current({"kind": "unit_square"}), pairs, (), 0.0, "mass", 0.0)


def _diagonal_piece(m: int, n: int, root=None, theta: int = 1) -> TopDimCurrent:
    """n cubes of generation 4 on every other step of the diagonal of an m-cube: none merges."""
    root = root or RootBox((0.5,) * m, 2.0)
    return TopDimCurrent(CubeSet.of(root, [4] * n, [(2 * j,) * m for j in range(n)]), theta)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pieces_of_one_to_five_cubes_write_the_bytes_of_their_descriptors(tmp_path, m):
    pieces = [_diagonal_piece(m, n, theta=(-1) ** n * n) for n in (3, 1, 5, 2, 4, 1, 5)]
    assert sorted({len(piece.region.arrays[0]) for piece in pieces}) == [1, 2, 3, 4, 5]
    pairs = [TaggedPair((0.125 * k,) * m, piece, *([0.5 + k] * 6))
             for k, piece in enumerate(pieces)]
    _assert_same_bytes(_family(pairs), tmp_path)


def test_non_finite_root_corners_and_sides_are_spelled_as_json_spells_them(tmp_path):
    roots = [RootBox((math.nan, -math.inf, 1.5), math.inf),
             RootBox((math.inf, 0.0, -2.0), math.nan), RootBox((-0.0, 1e300, 5e-324), 3)]
    pairs = [TaggedPair((math.nan, math.inf, -math.inf), _diagonal_piece(3, 2, root), *([1.0] * 6))
             for root in roots]
    _assert_same_bytes(_family(pairs), tmp_path)
    text = (tmp_path / "pieces.json").read_text()
    assert all(word in text for word in ("NaN", "-Infinity", "\"side\": Infinity", "\"side\": 3\n"))


@pytest.mark.parametrize("name", ["", 'quote " and \\ é', "{0} and {1}", "1", "@0@"])
def test_chart_names_are_written_as_their_descriptors_write_them(tmp_path, name):
    pairs = [TaggedPair((0.0, 0.5, -1.0), ChartCurrent(rect, _chart(name), theta), *([2.0] * 6))
             for rect, theta in ((Rect(0.0, 1.0, 0.0, 0.5), 1), (Rect(-3.0, 2.5, 1e-9, 7.0), -2))]
    _assert_same_bytes(_family(pairs), tmp_path)


def test_integer_rect_coordinates_are_written_as_their_descriptors_write_them(tmp_path):
    rect = Rect(-3, 2.5, 1e-9, 7)
    assert [type(v) for v in rect.payload()["rect"]] == [float] * 4
    pairs = [TaggedPair((0.0, 0.5, -1.0), ChartCurrent(rect, _chart("c"), -2), *([2.0] * 6))]
    _assert_same_bytes(_family(pairs), tmp_path)
    assert "-3.0" in (tmp_path / "pieces.json").read_text()


@st.composite
def _mixed_pairs(draw):
    """Cube pieces of dimension 3 and chart pieces in one table, in any order."""
    charts = [_chart(name) for name in ("", 'quote " and \\ é')]
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        tag = tuple(draw(_FLOATS) for _ in range(3))
        if draw(st.booleans()):
            x0, y0 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
            piece = ChartCurrent(Rect(x0, x0 + draw(st.floats(1e-3, 5.0)), y0, y0 + 0.5),
                                 draw(st.sampled_from(charts)), draw(st.sampled_from([1, -2])))
        else:
            root = RootBox(tuple(draw(st.floats(-1e3, 1e3)) for _ in range(3)),
                           draw(st.sampled_from([1, 0.5, 2.5e7])))
            theta = draw(st.sampled_from([1, -1]))
            piece = _diagonal_piece(3, draw(st.integers(1, 5)), root, theta)
        pairs.append(TaggedPair(tag, piece, *(draw(_FLOATS) for _ in range(6))))
    return pairs


@given(_mixed_pairs())
@settings(max_examples=100, deadline=None)
def test_tables_of_cube_and_chart_pieces_write_the_bytes_of_their_descriptors(tmp_path_factory,
                                                                              pairs):
    _assert_same_bytes(_family(pairs), tmp_path_factory.mktemp("family"))
