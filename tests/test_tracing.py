"""The benchmark's layer trace still finds every entry point it wraps.

``perfbench/tracing.py`` rebinds entry points of ``clausify``, ``reasoner``
and ``miner`` by name and fails when one is missing, so a renamed entry
point shows here rather than only in the traced benchmark run, and an
entry point that the program no longer calls through its wrapped name shows
as a span with no calls."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_mine_reports_every_layer(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result),
         "1", "--", "mine", "--kb", str(ROOT / "demos" / "bank.kb"),
         "--ref-concept", "Client", "--minsup", "1/2", "--max-depth", "2",
         "--mode", "sem", "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["rc"] == 0
    layers = report["layers"]
    # sem mode clausifies the full KB and its intensional part.
    assert layers["clausify.clausify.calls"] == 2
    assert layers["reasoner.chase.frozen.calls"] > 0
    assert {"reasoner.canonical_query.hits",
            "reasoner.canonical_query.misses"} <= set(layers)
    # A wrapped name that calls are routed around reads 0.  Nothing calls
    # the containment span's name: containment tests match compiled queries.
    idle = {name for name, value in layers.items()
            if name.endswith(".calls") and not value}
    assert idle == {"reasoner.answer_query.containment.calls"}
