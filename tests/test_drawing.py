import math
from pathlib import Path

import numpy as np
import pytest

from helpers import axis_projection_closed_form
from rotkit import (
    DrawSpec,
    compose_pyr,
    extract_pyr,
    project_axes,
    random_rotation,
    reference_draw_axis,
    render_svg,
    segments,
)

GOLDEN = Path(__file__).parent / "data" / "axes_pose_6p208_5p876_m1p694.svg"


def _proj_tuple(proj):
    return np.concatenate([proj.x_axis, proj.y_axis, proj.z_axis])


class TestProjectAxes:
    def test_identity_pose(self):
        proj = project_axes(np.eye(3))
        np.testing.assert_array_equal(proj.x_axis, [1.0, 0.0])
        np.testing.assert_array_equal(proj.y_axis, [0.0, 1.0])
        np.testing.assert_array_equal(proj.z_axis, [0.0, 0.0])

    def test_quarter_yaw_points_z_left(self):
        proj = project_axes(compose_pyr((0.0, math.pi / 2, 0.0)))
        # z column of the projection is (-sin y, -sin p cos y)
        np.testing.assert_allclose(proj.z_axis, [-1.0, 0.0], atol=1e-12)

    def test_matches_closed_form_columns(self):
        p, y, r = (math.radians(v) for v in (-17.325, -49.589, 11.423))
        proj = project_axes(compose_pyr((p, y, r)))
        x, yv, z = axis_projection_closed_form(p, y, r)
        np.testing.assert_allclose(proj.x_axis, x, atol=1e-14)
        np.testing.assert_allclose(proj.y_axis, yv, atol=1e-14)
        np.testing.assert_allclose(proj.z_axis, z, atol=1e-14)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            project_axes(np.eye(3) * 1.1)

    def test_projection_norms(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            proj = project_axes(random_rotation(rng))
            norms = [np.linalg.norm(a) for a in (proj.x_axis, proj.y_axis, proj.z_axis)]
            assert all(n <= 1.0 + 1e-12 for n in norms)
            assert sum(n * n for n in norms) <= 3.0 + 1e-12


class TestReferenceDrawAxis:
    def test_identity(self):
        proj = reference_draw_axis((0.0, 0.0, 0.0))
        np.testing.assert_array_equal(proj.x_axis, [1.0, 0.0])
        np.testing.assert_array_equal(proj.y_axis, [0.0, 1.0])
        np.testing.assert_array_equal(proj.z_axis, [0.0, 0.0])

    def test_quarter_yaw(self):
        proj = reference_draw_axis((0.0, math.pi / 2, 0.0))
        np.testing.assert_allclose(proj.z_axis, [-1.0, 0.0], atol=1e-12)

    def test_equivalence_with_matrix_route(self):
        rng = np.random.default_rng(59)
        for _ in range(5000):
            e = tuple(rng.uniform(-math.pi, math.pi, size=3))
            a = _proj_tuple(project_axes(compose_pyr(e)))
            b = _proj_tuple(reference_draw_axis(e))
            assert np.abs(a - b).max() < 1e-12

    def test_sample_pose_equivalence(self):
        e = tuple(math.radians(v) for v in (6.208, 5.876, -1.694))
        a = _proj_tuple(project_axes(compose_pyr(e)))
        b = _proj_tuple(reference_draw_axis(e))
        assert np.abs(a - b).max() < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            reference_draw_axis((0.0, math.nan, 0.0))


def test_drawing_is_euler_independent():
    # both Euler solutions of a rotation compose to the same matrix, so
    # the projection cannot depend on which representation was labeled
    rng = np.random.default_rng(61)
    for _ in range(100):
        r = random_rotation(rng)
        sol = extract_pyr(r)
        a = _proj_tuple(project_axes(compose_pyr(sol.primary)))
        b = _proj_tuple(project_axes(compose_pyr(sol.secondary)))
        assert np.abs(a - b).max() < 1e-12


class TestSegments:
    def test_identity_layout(self):
        segs = segments(project_axes(np.eye(3)), DrawSpec(center=(100.0, 100.0), size=50.0))
        assert segs[0] == ((100.0, 100.0), (150.0, 100.0))  # red, to the right
        assert segs[1] == ((100.0, 100.0), (100.0, 150.0))  # green, downward
        assert segs[2] == ((100.0, 100.0), (100.0, 100.0))  # blue, degenerate

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            DrawSpec(center=(0.0, 0.0), size=0.0)

    def test_endpoints_match_closed_form(self):
        p, y, r = (math.radians(v) for v in (-17.325, -49.589, 11.423))
        segs = segments(project_axes(compose_pyr((p, y, r))), DrawSpec(center=(0.0, 0.0), size=1.0))
        for seg, axis in zip(segs, axis_projection_closed_form(p, y, r)):
            assert abs(seg[1][0] - axis[0]) < 1e-12
            assert abs(seg[1][1] - axis[1]) < 1e-12


class TestRenderSvg:
    def _segments(self, e_deg=(6.208, 5.876, -1.694)):
        e = tuple(math.radians(v) for v in e_deg)
        return segments(project_axes(compose_pyr(e)), DrawSpec(center=(225.0, 225.0), size=100.0))

    def test_three_line_elements(self):
        svg = render_svg(self._segments(), 450, 450)
        assert svg.count("<line ") == 3
        for color in ("#FF0000", "#00FF00", "#0000FF"):
            assert color in svg

    def test_identity_pose_has_degenerate_blue_line(self):
        segs = segments(project_axes(np.eye(3)), DrawSpec(center=(10.0, 10.0), size=5.0))
        svg = render_svg(segs, 20, 20)
        assert svg.count("<line ") == 3
        assert 'x1="10.0" y1="10.0" x2="10.0" y2="10.0"' in svg

    def test_byte_determinism(self):
        a = render_svg(self._segments(), 450, 450, background_href="img/face.jpg")
        b = render_svg(self._segments(), 450, 450, background_href="img/face.jpg")
        assert a == b

    def test_background_reference(self):
        svg = render_svg(self._segments(), 450, 450, background_href='a"b.png')
        assert "<image " in svg
        assert "&quot;" in svg
        assert render_svg(self._segments(), 450, 450).count("<image ") == 0

    def test_href_escaped_as_saxutils_did(self):
        from xml.sax.saxutils import escape

        href = "a&b<c>\"d'e.png"
        svg = render_svg(self._segments(), 450, 450, background_href=href)
        assert f'<image href="{escape(href, {chr(34): "&quot;"})}" ' in svg
        assert '<image href="a&amp;b&lt;c&gt;&quot;d\'e.png" ' in svg

    @pytest.mark.parametrize("href", ["a\x01b.jpg", "x\ud800.jpg", "nul\x00", "\ufffe.png"])
    def test_href_outside_xml_is_refused(self, href):
        with pytest.raises(ValueError, match="is not valid XML 1.0"):
            render_svg(self._segments(), 450, 450, background_href=href)

    def test_href_of_xml_characters_parses_back(self):
        from xml.dom import minidom

        href = "caf\xe9 \ud7ff\ue000\ufffd\U0001f600\U0010ffff&<.jpg"
        svg = render_svg(self._segments(), 450, 450, background_href=href)
        image = minidom.parseString(svg.encode("utf-8")).getElementsByTagName("image")[0]
        assert image.getAttribute("href") == href

    def test_href_whitespace_parses_back(self):
        # attribute-value normalisation reads a raw tab, LF or CR as a space
        from xml.dom import minidom

        href = "a\tb\nc\rd \r\n.jpg"
        svg = render_svg(self._segments(), 450, 450, background_href=href)
        assert '<image href="a&#9;b&#10;c&#13;d &#13;&#10;.jpg" ' in svg
        image = minidom.parseString(svg.encode("utf-8")).getElementsByTagName("image")[0]
        assert image.getAttribute("href") == href

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            render_svg(self._segments(), 0, 450)
        for width, height in [(math.nan, 450), (450, math.inf), (-math.inf, math.nan)]:
            with pytest.raises(ValueError, match="finite and positive"):
                render_svg(self._segments(), width, height)

    def test_golden_file(self):
        svg = render_svg(self._segments(), 450, 450)
        assert svg == GOLDEN.read_text(encoding="utf-8")
