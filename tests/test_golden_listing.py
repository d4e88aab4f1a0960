"""Byte identity against a committed record: the tiny flows of both
benchmark workloads (tools/flow_digests.py --golden) write files whose
digests equal those in golden_listing.txt. Regenerate the listing only
for a change that means to alter those outputs:

    PYTHONPATH=src python3 tools/flow_digests.py \\
        --golden tests/golden_listing.txt --dir /tmp/flow
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden_listing.txt")


def _entries(path):
    """-> ({file: digest or remote_threshold line}, header lines)."""
    entries, header = {}, []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                header.append(line[1:].strip())
            elif line.strip():
                value, name = line.split()
                entries[name] = value
    return entries, header


def test_tiny_flows_match_the_golden_listing(tmp_path):
    out = tmp_path / "listing.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + os.environ.get(
            "PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "flow_digests.py"),
         "--golden", str(out), "--dir", str(tmp_path / "flows")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (expected, made_under), (got, run_under) = _entries(GOLDEN), \
        _entries(out)
    differ = sorted(name for name in expected.keys() | got.keys()
                    if expected.get(name) != got.get(name))
    assert not differ, "differ from %s: %s (listing made under %s, this " \
        "run under %s)" % (os.path.basename(GOLDEN), ", ".join(differ),
                           "; ".join(made_under), "; ".join(run_under))
