import xml.etree.ElementTree as ET

import pytest

from sagnacsim import ExperimentConfig, builtin_schedule, fit_fringe, generate_scan
from sagnacsim.plotting import PANEL_H, PANEL_W, _Canvas, _shift_panel, render_campaign_svg

SVG = "{http://www.w3.org/2000/svg}"


def test_flat_fit_drawn_through_its_points():
    # d = 2 is flat at t = 0.5: its fit defines no phase, so no fitted curve may be drawn
    cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2))
    scans = [generate_scan(cfg, t, mode="exact") for t in (0.0, 0.5)]
    pairs = [(scan, fit_fringe(scan)) for scan in scans]
    assert [fit.b_defined for _, fit in pairs] == [True, False]
    shifts = [{"dim": 2, "shift_deg": 180.0, "theory_deg": 180.0, "sigma_deg": 0.0}]
    svg = ET.fromstring(render_campaign_svg([("d = 2 (exact)", pairs)], shifts))
    points = [f"{c.get('cx')},{c.get('cy')}" for c in svg.iter(f"{SVG}circle")]
    curve, flat = (line.get("points").split() for line in svg.iter(f"{SVG}polyline"))
    n = scans[1].values.size
    assert len(curve) == 200  # the t = 0 fit, sampled densely
    assert flat == points[n:2 * n]  # the t = 0.5 scan, joined point to point


# 240 deg is the shift of a d = 3 loop in sector 2; the built-ins shift by 180 deg at most
@pytest.mark.parametrize("shift_deg, labels", [
    (240.0, ["0", "90", "180", "270"]),
    (180.0, ["0", "90", "180"]),
    (90.0, ["0", "90"]),
])
def test_shift_axis_labels(shift_deg, labels):
    canvas = _Canvas(PANEL_W, PANEL_H)
    _shift_panel(canvas, 0, 0, [{"dim": 3, "shift_deg": shift_deg, "theory_deg": shift_deg,
                                 "sigma_deg": 0.0}])
    svg = ET.fromstring(canvas.render())
    assert [t.text for t in svg.iter(f"{SVG}text") if t.get("text-anchor") == "end"] == labels
