"""Property test of the main loop over random problems, powers and starts.

The loop runs on iterates it checked once and calls unchecked kernels,
so this drives it through off-center, aggressive and capped runs and
checks the contract that holds for every input: one of the four
statuses and no exception, an interior point within epsilon whenever
the run converged, and the same outcome through the command line.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import event, given
from hypothesis import strategies as st

from lcco_ipm import (
    AUTO,
    ObjectiveSpec,
    Problem,
    SolverConfig,
    StartPoint,
    generate_instance,
    serialize_instance,
    solve,
)
from lcco_ipm.cli import _EXIT_BY_STATUS, main


def perturbed_problem(n, m, kind, seed, spread):
    """A generated instance moved to a start scaled by factors in [e^-s, e^s].

    b and c are re-derived so the start stays primal and dual feasible;
    only its distance from the center changes, which lands it on either
    side of the admission threshold.
    """
    p = generate_instance(n, m, kind, seed)
    rng = np.random.default_rng(seed)
    x0 = np.exp(spread * rng.uniform(-1.0, 1.0, n))
    z0 = np.exp(spread * rng.uniform(-1.0, 1.0, n))
    y0 = p.start.y0
    c = p.A.T @ y0 + z0
    if kind == "quadratic":
        objective = ObjectiveSpec.quadratic(c - p.objective.Q @ x0, p.objective.Q)
    else:
        objective = ObjectiveSpec.linear(c)
    start = StartPoint(x0=x0, y0=y0, z0=z0)
    return Problem(A=p.A, b=p.A @ x0, objective=objective, start=start).validate()


@st.composite
def runs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=n - 1))
    kind = draw(st.sampled_from(["linear", "quadratic"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    spread = draw(st.floats(min_value=0.0, max_value=1.0))
    theta = draw(
        st.one_of(st.just(AUTO), st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
    )
    cfg = SolverConfig(
        r=draw(st.integers(min_value=1, max_value=4)),
        theta=theta,
        max_iterations=draw(st.integers(min_value=1, max_value=300)),
    )
    return perturbed_problem(n, m, kind, seed, spread), cfg


@given(case=runs())
def test_every_run_ends_in_a_documented_status(case):
    p, cfg = case
    result = solve(p, cfg)
    event(result.status)
    assert result.status in _EXIT_BY_STATUS
    if result.status == "converged":
        assert result.x.min() > 0.0
        assert result.z.min() > 0.0
        assert result.gap_final <= cfg.epsilon
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.lcco"
        path.write_text(serialize_instance(p))
        argv = [
            "solve", str(path),
            "--r", str(cfg.r),
            "--theta", cfg.theta if cfg.theta == AUTO else repr(cfg.theta),
            "--max-iter", str(cfg.max_iterations),
        ]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code == _EXIT_BY_STATUS[result.status]
