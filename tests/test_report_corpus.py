"""The report-identity tool: a reproducible corpus and a field-level diff."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def corpus_tool():
    path = ROOT / "tools" / "report_corpus.py"
    spec = importlib.util.spec_from_file_location("report_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_corpus_is_reproducible_and_diff_names_each_change(tmp_path):
    tool = corpus_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    codes = tool.write(str(a), quick=True)
    assert codes and not any(codes.values())
    assert tool.write(str(b), quick=True) == codes
    (summary,) = tool.diff(str(a), str(b))
    files = sum(1 for path in a.rglob("*") if path.is_file())
    assert files > 2 * len(codes)
    assert summary == (
        f"{files} files: {files} identical, 0 changed, 0 only in A, 0 only in B"
    )
    # one perturbed number and one changed string in a report, one
    # perturbed CSV cell and one removed file
    report = b / "synth-sweep" / "out" / "d20-tcp-0" / "synthesis.json"
    doc = json.loads(report.read_text())
    doc["nonstationary"]["objective"] *= 1.5
    doc["nonstationary"]["winner"] = "other"
    report.write_text(json.dumps(doc))
    table = b / "demos" / "scalar_udp-udp" / "simulate" / "trace_mean.csv"
    lines = table.read_text().splitlines()
    header, row = lines[0].split(","), lines[3].split(",")
    before = float(row[1])
    row[1] = repr(before + 0.25)
    lines[3] = ",".join(row)
    table.write_text("\n".join(lines) + "\n")
    gone = b / "demos" / "two_channel_schedule-tcp" / "compare" / "comparison.json"
    gone.unlink()
    got = tool.diff(str(a), str(b))
    objective = json.loads(
        (a / "synth-sweep" / "out" / "d20-tcp-0" / "synthesis.json").read_text()
    )["nonstationary"]
    assert got == [
        "demos/scalar_udp-udp/simulate/trace_mean.csv",
        f"  {header[1]}: 1 of {len(lines) - 1} values changed, "
        "largest change +0.25, "
        f"largest relative {(before + 0.25 - before) / abs(before):.3g}",
        "synth-sweep/out/d20-tcp-0/synthesis.json",
        f"  nonstationary.objective: 1 of 1 values changed, "
        f"largest change {0.5 * objective['objective']:+.3g}, "
        "largest relative 0.5",
        f"  nonstationary.winner: {objective['winner']!r} -> 'other'",
        "only in A: demos/two_channel_schedule-tcp/compare/comparison.json",
        f"{files} files: {files - 3} identical, 2 changed, 1 only in A, "
        "0 only in B",
    ]
    assert tool.main(["diff", str(a), str(a)]) == 0
    assert tool.main(["diff", str(a), str(b)]) == 1
