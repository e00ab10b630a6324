"""The experiment scripts under scripts/, driven through their main()."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inequality_scan_prints_the_range_its_verdict_grades(capsys):
    # Next to w = 1 the expanded ratio cancels; the printed range must
    # come from the same factored form that check_eq117_inequality grades.
    script = load("check_inequalities")
    argv = ["--w-min", "0.9999", "--w-max", "1.0001", "--steps", "2000"]
    assert script.main(argv) == 0
    out = capsys.readouterr().out
    low, high = re.search(r"r= 2: .*ratio range \[(\S+), (\S+)\]", out).groups()
    assert 0.0 <= float(low) <= float(high) <= 1.0 + 1e-9


def test_trace_digest_is_reproducible(capsys):
    script = load("trace_digest")
    argv = ["--n", "4", "--seeds", "1", "--r", "1"]
    digests = []
    for _ in range(2):
        assert script.main(argv) == 0
        digests.append(capsys.readouterr().out)
    assert digests[0] == digests[1]
    assert re.fullmatch(r"runs 2, steps \d+, sha256 [0-9a-f]{64}\n", digests[0])
