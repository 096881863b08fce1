import math

import pytest
from scipy.linalg import expm

from peocalc import verify
from peocalc.errors import DomainError
from peocalc.verify import CheckResult, SUITES, run_suite


def test_every_suite_passes():
    for name in SUITES:
        results = run_suite(name)
        assert results, name
        for r in results:
            assert r.passed, f"{name}: {r.line()}"


def test_all_chains_every_suite():
    total = sum(len(run_suite(name)) for name in SUITES)
    assert len(run_suite("all")) == total


def test_unknown_suite_raises():
    with pytest.raises(DomainError):
        run_suite("nosuch")


def test_check_result_line_format():
    ok = CheckResult("some identity", True, 1.5e-14, "tol 1e-12")
    assert ok.line() == "PASS  some identity  residual=1.500e-14  (tol 1e-12)"
    bad = CheckResult("broken", False, math.inf)
    assert bad.line().startswith("FAIL  broken")


def test_offdiagonal_exponential_matches_scipy_on_the_step_matrices():
    # the 256 + 512 midpoint steps of the product integrator in suite_vn
    worst = 0.0
    for steps in (256, 512):
        dt = 1.0 / steps
        for k in range(steps):
            a, b = dt, (k + 0.5) * dt * dt
            got = verify._expm2_offdiag(a, b)
            want = expm([[0.0, a], [b, 0.0]])
            for i in range(2):
                for j in range(2):
                    worst = max(worst, abs(got[i][j] - want[i][j]) / abs(want[i][j]))
    assert worst <= 1e-15


def test_report_rows(monkeypatch):
    # the timing stamp is neither compared nor shown
    assert CheckResult("x", True, 0.0) == CheckResult("x", True, 0.0)
    assert "stamp" not in repr(CheckResult("x", True, 0.0))

    def fake():
        return [
            CheckResult("broken", False, math.inf, "exact"),
            CheckResult("fine", True, 2.5e-14, "tol 1e-12"),
        ]

    monkeypatch.setitem(verify.SUITES, "fake", fake)
    rows = verify.report("fake")
    assert [r["name"] for r in rows] == ["broken", "fine"]
    assert rows[0] == {
        "suite": "fake",
        "name": "broken",
        "passed": False,
        "residual": None,
        "detail": "exact",
        "seconds": rows[0]["seconds"],
    }
    assert rows[1]["residual"] == 2.5e-14 and rows[1]["passed"] is True
    assert all(r["seconds"] >= 0.0 for r in rows)
    with pytest.raises(DomainError):
        verify.report("nosuch")
