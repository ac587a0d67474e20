import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "kernel_rate", Path(__file__).resolve().parent.parent / "tools" / "kernel_rate.py")
kernel_rate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(kernel_rate)


def test_the_kernel_rate_counts_the_rectangles_and_edges_of_the_stokes_run(tmp_path, capsys):
    summary = tmp_path / "summary.md"
    summary.write_text("earlier steps\n")
    assert kernel_rate.main(["--sweeps", "1", "--summary", str(summary)]) == 0
    table = capsys.readouterr().out
    assert summary.read_text() == "earlier steps\n\n" + table
    rows = [line.strip("| ").split(" | ") for line in table.splitlines()[4:]]
    assert [row[0] for row in rows] == ["rectangles", "edges", "both"]
    calls, points, panels = ([int(row[i]) for row in rows] for i in (1, 3, 4))
    # a rectangle panel has 12 x 12 nodes, an edge panel 12, and both sweeps add up
    assert points[0] == 144 * panels[0] and points[1] == 12 * panels[1]
    assert points[2] == points[0] + points[1] and panels[2] == panels[0] + panels[1]
    assert calls[2] == calls[0] + calls[1] > 0
    assert all(float(rate) > 0 for row in rows for rate in row[6:])
