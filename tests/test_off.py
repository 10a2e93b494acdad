"""OFF text round trips, file IO, and malformed-input diagnostics."""

import numpy as np
import pytest

from conftest import crater_can
from melzak import (
    cube,
    emit_off,
    melzak_ratio,
    optimal_prism,
    parse_off,
    read_off,
    regular_tetrahedron,
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


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_off("NOTOFF\n1 1 1\n")
    with pytest.raises(ParseError):
        parse_off("OFF\n2 1 0\n0 0 0\n1 0 0\n2 0 1\n")
    with pytest.raises(ParseError):
        parse_off(TETRA_TXT.replace("3 0 3 2", "3 0 3 9"))
    with pytest.raises(NonManifold):
        parse_off(TETRA_TXT.replace("3 0 3 2", "3 1 2 3"))
    # a non-finite coordinate is named by its line (the vertex lines are 3-6)
    for bad in ("nan", "inf", "-inf", "NaN"):
        with pytest.raises(ParseError, match="^line 4: "):
            parse_off(TETRA_TXT.replace("\n1 0 0\n", f"\n1 {bad} 0\n"))
