"""Write a fixed corpus of CLI reports, or list what differs between two.

    python tools/report_corpus.py write DIR [--quick] [--root CHECKOUT]
    python tools/report_corpus.py diff A B

``write`` runs the ``dropattack`` CLI in this process, on the package in
``CHECKOUT/src`` (default: the checkout holding this file), over:

* every operation of the four benchmark workloads, as
  ``bench/workloads.py`` builds them at seed 101 (FULL sizes, or QUICK
  ones with ``--quick``), into ``DIR/<workload>/``;
* both demo configs as udp and as tcp under all four subcommands, with
  ``analyze --empirical 2000`` (200 with ``--quick``, where ``simulate``
  and ``compare`` also run 20 realizations), into ``DIR/demos/``;
* one ``simulate`` of the two-channel demo that resynthesizes its
  schedule at every step from step 40, over 2 realizations.

Each run's exit code goes into ``DIR/exit_codes.json``.  The corpus reads
only the configs and the CLI, so a checkout that predates this tool can be
run with ``--root``.

``diff`` compares every file under A with its namesake under B.  For each
JSON field (list indices dropped, so a schedule is one field) and each CSV
column it prints how many values changed, the largest change with its
sign and the largest relative change; it lists changed strings, booleans
and nulls one by one, and files found on one side only.  It ends with a
one-line summary and exits 1 when anything differs.
"""

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mc-compare", "synth-sweep", "receding-attack", "horizon-check")
SUBCOMMANDS = ("synthesize", "simulate", "analyze", "compare")
SEED = 101


def _workloads(root):
    path = os.path.join(root, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("corpus_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _demo_runs(root, out, quick):
    """(run id, argv) of every demo run, writing each run's config."""
    runs = []
    empirical = "200" if quick else "2000"
    realizations = ["--realizations", "20"] if quick else []
    for name in ("scalar_udp", "two_channel_schedule"):
        with open(os.path.join(root, "demos", "configs", name + ".json")) as h:
            doc = json.load(h)
        for protocol in ("udp", "tcp"):
            doc["protocol"] = protocol
            config = os.path.join(out, "demos", "configs", f"{name}-{protocol}.json")
            _write_json(config, doc)
            for command in SUBCOMMANDS:
                run = f"demos/{name}-{protocol}/{command}"
                extra = {
                    "analyze": ["--empirical", empirical],
                    "simulate": realizations,
                    "compare": realizations,
                }.get(command, [])
                argv = [command, "--config", config, "--out",
                        os.path.join(out, run)] + extra
                runs.append((run, argv))
    doc["protocol"] = "udp"
    doc["attack"] = {"kind": "nonstat", "onset": 40, "resynthesize": True}
    config = os.path.join(out, "demos", "configs", "receding.json")
    _write_json(config, doc)
    run = "demos/receding/simulate"
    runs.append((run, ["simulate", "--config", config, "--out",
                       os.path.join(out, run), "--realizations", "2"]))
    return runs


def write(out, quick=False, root=ROOT):
    """Write the corpus into ``out`` with the package of ``root``."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import dropattack
        from dropattack.cli import main
    finally:
        sys.path.pop(0)
    found = os.path.dirname(os.path.dirname(os.path.abspath(dropattack.__file__)))
    if found != os.path.abspath(src):
        raise SystemExit(f"dropattack is already imported from {found}, not {src}")
    workloads = _workloads(root)
    sizes = workloads.QUICK if quick else workloads.FULL
    runs = []
    for workload in WORKLOADS:
        workdir = os.path.join(out, workload)
        for op in workloads.build(workload, SEED, workdir, root, sizes):
            runs.append((f"{workload}/{op['name']}", op["argv"]))
    runs += _demo_runs(root, out, quick)
    codes = {run: main(argv) for run, argv in runs}
    _write_json(os.path.join(out, "exit_codes.json"), codes)
    return codes


# -------------------------------------------------------------------- diff

def _leaves(obj, path, out):
    """Every leaf of a JSON document, keyed by its path of keys and list
    indices."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _leaves(value, path + (str(key),), out)
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            _leaves(value, path + (k,), out)
    else:
        out[path] = obj
    return out


def _csv_leaves(text):
    """Every cell of a CSV report, keyed by (row, column name)."""
    rows = list(csv.reader(io.StringIO(text)))
    leaves = {("(header)",): ",".join(rows[0])} if rows else {}
    for k, row in enumerate(rows[1:]):
        for name, cell in zip(rows[0], row):
            try:
                leaves[(k, name)] = float(cell)
            except ValueError:
                leaves[(k, name)] = cell
    return leaves


def _parse(path, text):
    if path.endswith(".json"):
        return _leaves(json.loads(text), (), {})
    if path.endswith(".csv"):
        return _csv_leaves(text)
    return {("(text)",): text}


def _field(path):
    """A leaf's field: its path without list indices or row numbers."""
    name = ".".join(str(p) if isinstance(p, str) else "[]" for p in path)
    return name.replace(".[]", "[]").lstrip("[].") or "(value)"


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _field_lines(leaves_a, leaves_b):
    """The per-field report of two parsed files (empty when equal)."""
    fields = {}
    for path in sorted(leaves_a.keys() | leaves_b.keys(), key=str):
        entry = fields.setdefault(_field(path), {
            "n": 0, "changed": 0, "delta": 0.0, "rel": 0.0, "other": [],
        })
        entry["n"] += 1
        va, vb = leaves_a.get(path, "(missing)"), leaves_b.get(path, "(missing)")
        if va == vb or (_is_number(va) and _is_number(vb)
                        and math.isnan(va) and math.isnan(vb)):
            continue
        entry["changed"] += 1
        if _is_number(va) and _is_number(vb):
            delta = vb - va
            if abs(delta) > abs(entry["delta"]):
                entry["delta"] = delta
            entry["rel"] = max(entry["rel"], abs(delta) / abs(va) if va else math.inf)
        else:
            entry["other"].append(f"{va!r} -> {vb!r}")
    lines = []
    for field, entry in fields.items():
        lines += [f"  {field}: {change}" for change in entry["other"]]
        numbers = entry["changed"] - len(entry["other"])
        if numbers:
            lines.append(
                f"  {field}: {numbers} of {entry['n']} values changed, "
                f"largest change {entry['delta']:+.3g}, "
                f"largest relative {entry['rel']:.3g}"
            )
    return lines


def _files(top):
    found = set()
    for folder, _, names in os.walk(top):
        for name in names:
            found.add(os.path.relpath(os.path.join(folder, name), top))
    return found


def diff(a, b):
    """Report lines for the corpora ``a`` and ``b``; the last line sums up."""
    files_a, files_b = _files(a), _files(b)
    lines, same, changed = [], 0, 0
    for rel in sorted(files_a & files_b):
        with open(os.path.join(a, rel)) as ha, open(os.path.join(b, rel)) as hb:
            text_a, text_b = ha.read(), hb.read()
        if text_a == text_b:
            same += 1
            continue
        changed += 1
        fields = _field_lines(_parse(rel, text_a), _parse(rel, text_b))
        lines.append(rel)
        lines += fields or ["  bytes differ, every value equal"]
    only_a, only_b = sorted(files_a - files_b), sorted(files_b - files_a)
    lines += [f"only in A: {rel}" for rel in only_a]
    lines += [f"only in B: {rel}" for rel in only_b]
    lines.append(
        f"{len(files_a | files_b)} files: {same} identical, {changed} changed, "
        f"{len(only_a)} only in A, {len(only_b)} only in B"
    )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="write the corpus into DIR")
    p_write.add_argument("dir")
    p_write.add_argument("--quick", action="store_true",
                         help="the benchmark's QUICK sizes, fewer samples")
    p_write.add_argument("--root", default=ROOT,
                         help="checkout whose src/ runs (default: this one)")
    p_diff = sub.add_parser("diff", help="compare two corpora")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        codes = write(args.dir, args.quick, os.path.abspath(args.root))
        failed = {run: code for run, code in codes.items() if code}
        print(f"{len(codes)} runs, {len(failed)} exited non-zero: {failed}")
        return 0
    lines = diff(args.a, args.b)
    print("\n".join(lines))
    return 0 if len(lines) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
