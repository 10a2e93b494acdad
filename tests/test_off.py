"""OFF text round trips, file IO, and malformed-input diagnostics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import crater_can
from melzak import (
    cube,
    emit_off,
    melzak_ratio,
    optimal_prism,
    parse_off,
    random_convex,
    read_off,
    regular_tetrahedron,
    validate,
    volume,
    write_off,
)
from melzak.errors import NonManifold, ParseError

TETRA_TXT = ("OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
             "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n")


def test_emit_header_and_counts():
    lines = emit_off(cube()).splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "8 6 12"
    assert len(lines) == 2 + 8 + 6


def test_text_roundtrip_preserves_geometry():
    for P in (cube(), regular_tetrahedron(), optimal_prism()):
        Q = parse_off(emit_off(P))
        assert Q.convex
        assert Q.faces == P.faces
        assert np.allclose(Q.vertices, P.vertices, atol=1e-11)
        assert melzak_ratio(Q) == pytest.approx(melzak_ratio(P), rel=1e-9)


def test_emit_is_deterministic():
    assert emit_off(optimal_prism()) == emit_off(optimal_prism())


def test_file_roundtrip(tmp_path):
    path = tmp_path / "shape.off"
    write_off(path, cube())
    Q = read_off(path)
    assert (Q.n_vertices, Q.n_faces) == (8, 6)
    assert volume(Q) == pytest.approx(1.0, abs=1e-12)


def test_parse_corner_tetrahedron():
    P = parse_off(TETRA_TXT)
    assert P.convex
    assert volume(P) == pytest.approx(1 / 6, abs=1e-12)


def test_parse_tolerates_comments_and_blanks():
    noisy = TETRA_TXT.replace("OFF\n", "OFF\n# a comment\n\n")
    assert parse_off(noisy).n_vertices == 4


def test_nonconvex_detected():
    CR, _, _, _ = crater_can()
    assert not CR.convex
    assert volume(CR) > 0
    again = parse_off(emit_off(CR))
    assert not again.convex
    assert volume(again) == pytest.approx(volume(CR), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e8])
def test_parse_is_free_of_scale(scale):
    Q = parse_off(emit_off(cube().scaled(scale)))
    assert Q.convex and validate(Q).ok
    assert melzak_ratio(Q) == pytest.approx(1728.0, rel=1e-10)


def _full_precision_off(vertices, faces) -> str:
    """OFF text that writes every coordinate at full repr precision."""
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += [" ".join(repr(float(x)) for x in v) for v in vertices]
    lines += [" ".join(str(x) for x in (len(cyc), *cyc)) for cyc in faces]
    return "\n".join(lines) + "\n"


def _body(k):
    """Body k: the crater, the cube, the tetrahedron, the prism, or else a
    random convex body of seed k."""
    named = (lambda: crater_can()[0], cube, regular_tetrahedron, optimal_prism)
    if k < len(named):
        return named[k]()
    return random_convex(np.random.default_rng(k), n_faces=4 + k % 20)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 60), shift=st.floats(0.0, 1e5), scale=st.integers(-6, 6),
       turn=st.integers(0, 10_000))
@example(k=0, shift=1e6, scale=0, turn=0)
@example(k=0, shift=0.0, scale=-6, turn=0)
@example(k=1, shift=1e5, scale=6, turn=1)
def test_moved_bodies_keep_convexity_and_validity(k, shift, scale, turn):
    # shifted by up to 1e5 diameters and scaled by 1e-6 to 1e6, then read
    # back from full-precision OFF text: the crater stays non-convex, the
    # convex bodies stay convex, and every one stays valid. At 1e6
    # diameters the convexity slack (1e-9 of the body's extent) is about
    # four ulps of a coordinate, and about 3 in 10,000 convex bodies read
    # non-convex there; the crater's pit is far deeper than that
    P = _body(k)
    u = np.random.default_rng(turn).normal(size=3)
    moved = (P.vertices + shift * P.diameter() * u / np.linalg.norm(u)) * 10.0 ** scale
    Q = parse_off(_full_precision_off(moved, P.faces))
    assert (Q.convex, validate(Q).ok) == (k != 0, True)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_off("NOTOFF\n1 1 1\n")
    with pytest.raises(ParseError):
        parse_off("OFF\n2 1 0\n0 0 0\n1 0 0\n2 0 1\n")
    with pytest.raises(ParseError):
        parse_off(TETRA_TXT.replace("3 0 3 2", "3 0 3 9"))
    with pytest.raises(NonManifold):
        parse_off(TETRA_TXT.replace("3 0 3 2", "3 1 2 3"))
    with pytest.raises(ParseError, match="zero area"):  # face 0 2 1 is collinear
        parse_off(TETRA_TXT.replace("\n0 1 0\n", "\n2 0 0\n"))
    # a non-finite coordinate is named by its line (the vertex lines are 3-6)
    for bad in ("nan", "inf", "-inf", "NaN"):
        with pytest.raises(ParseError, match="^line 4: "):
            parse_off(TETRA_TXT.replace("\n1 0 0\n", f"\n1 {bad} 0\n"))
