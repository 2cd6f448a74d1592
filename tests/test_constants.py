"""`rpt constants`: phi's log1p shortcut and the lazily built output.

The expressions these replaced are kept here as oracles: the denominator
``-log1p(-2^l)`` of phi_entry, phi_entry itself, and the old rendering of
``_cmd_constants``, which built both outputs and printed one.
"""

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import rpt.ledger
from rpt import serialize
from rpt.cli import main
from rpt.ledger import (
    ConstantsLedger,
    _minus_ln_one_minus,
    build_ledger,
    phi,
    phi_entry,
    phi_lower_bound,
)
from rpt.values import LogValue

# the benchmark's six constants cases, then a saturated ledger (h = 4) and
# the slowest h = 3 one
CASES = [
    (2, "1/4", "1/4", "1/4"),
    (3, "1/4", "1/4", "1/4"),
    (3, "1/8", "1/4", "1/4"),
    (2, "1/100", "1/4", "1/4"),
    (2, "1/4", "1/4", "1/8"),
    (3, "1/5", "1/4", "1/4"),
    (4, "1/4", "1/4", "1/4"),
    (3, "1/4", "1/4", "1/8"),
]


def old_denominator(log2: mpmath.mpf) -> mpmath.mpf:
    return -mpmath.log1p(-mpmath.power(2, log2))


def old_phi_entry(delta: LogValue, eta: LogValue) -> LogValue:
    if delta.exact is not None and eta.exact is not None and delta.exact >= Fraction(1, 10**6):
        return LogValue.of(phi(delta.exact, eta.exact))
    if delta.saturated or eta.saturated:
        return phi_lower_bound(delta, eta)
    denom = -mpmath.log1p(-mpmath.power(2, delta.log2))
    return LogValue(mpmath.log(-eta.log2 * mpmath.log(2) / denom, 2))


def old_render(led: ConstantsLedger, as_json: bool) -> str:
    payload = {"kind": "constants", "h": led.h, "entries": led.as_dict()}
    lines = [f"{name}: {entry.describe()}" for name, entry in led.entries.items()]
    return (serialize.dumps(payload) if as_json else "\n".join(lines)) + "\n"


def argv(case, as_json):
    h, eps, eta, theta = case
    out = ["constants", "--h", str(h), "--eps", eps, "--eta", eta, "--theta", theta]
    return out + ["--json"] if as_json else out


def ledger(case) -> ConstantsLedger:
    h, eps, eta, theta = case
    return build_ledger(h, Fraction(eps), Fraction(eta), Fraction(theta))


@pytest.fixture(scope="module")
def h3_delta_prime() -> mpmath.mpf:
    return ledger((3, "1/4", "1/4", "1/4")).get("delta_prime").log2


class TestLog1pShortcut:
    @pytest.mark.parametrize("prec", [53, 240, 480])
    def test_matches_log1p_around_the_threshold(self, prec, h3_delta_prime):
        with mpmath.workprec(prec):
            ls = [-(prec + 3), -(prec + 2), -(prec + 1), -prec, -prec / 2]
            # every half step across the threshold (the old expression rounds
            # away from x from about -(prec - 3) up), a non-integer exponent
            # that gives x a full mantissa, far below and far above
            ls += [-prec + k / 2 for k in range(-24, 25)]
            ls += [-(prec + 2) - mpmath.mpf(2) ** -20, -(3 * prec), -0.5, h3_delta_prime]
            for l in map(mpmath.mpf, ls):
                got, want = _minus_ln_one_minus(l), old_denominator(l)
                assert got._mpf_ == want._mpf_, (prec, l)

    def test_h3_delta_prime_skips_log1p(self, monkeypatch, h3_delta_prime):
        assert h3_delta_prime < -(mpmath.mp.prec + 2)
        want = old_denominator(h3_delta_prime)
        monkeypatch.setattr(mpmath, "log1p", lambda x: pytest.fail("log1p called"))
        assert _minus_ln_one_minus(h3_delta_prime) == want == mpmath.power(2, h3_delta_prime)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: "h{}:{}:{}:{}".format(*c))
    def test_phi_entry_matches_the_old_code(self, case):
        led = ledger(case)
        delta, eta = led.get("delta_prime"), led.get("eta_prime")
        # LogValue equality compares log2 (as an exact mpf), exact and saturated
        assert phi_entry(delta, eta) == old_phi_entry(delta, eta)


class TestLazyOutput:
    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: "h{}:{}:{}:{}".format(*c))
    def test_stdout_matches_the_old_rendering(self, case, as_json, capsys, monkeypatch):
        assert main(argv(case, as_json)) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(rpt.ledger, "phi_entry", old_phi_entry)
        assert out == old_render(ledger(case), as_json)

    def test_json_never_describes(self, capsys, monkeypatch):
        monkeypatch.setattr(LogValue, "describe", lambda self: pytest.fail("describe called"))
        assert main(argv((3, "1/4", "1/4", "1/4"), True)) == 0
        assert capsys.readouterr().out.startswith('{"entries":')

    def test_human_never_builds_the_dict(self, capsys, monkeypatch):
        monkeypatch.setattr(ConstantsLedger, "as_dict", lambda self: pytest.fail("as_dict called"))
        assert main(argv((3, "1/4", "1/4", "1/4"), False)) == 0
        assert capsys.readouterr().out.startswith("xi: 1/16\n")


# Inputs whose extraction depth s, at eps'/8, has more than 2^26 bits, so
# that building s, or 2^(delta'.log2) from it, takes gigabytes.  The slowest
# of CASES has a 4.7 M-bit depth.
TOWER_CASES = [
    (3, "1/4", "1/9", "1/48"),
    (3, "1/5", "1/9", "1/60"),
    (4, "1/4", "1/16", "1/48"),
]

_TIMED_RUNS = """
import json, sys, time, tracemalloc
from rpt.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    tracemalloc.start()
    start = time.perf_counter()
    code = main(argv)
    out.append([code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]])
    tracemalloc.stop()
print(json.dumps(out))
"""


def _cap_address_space():
    gib = 2**30
    resource.setrlimit(resource.RLIMIT_AS, (gib, gib))


def test_tower_depths_are_refused_in_bounded_time_and_memory():
    # one child process under a 1 GiB address-space limit runs all three;
    # each must refuse within a second and 32 MB of traced allocations
    src = str(Path(rpt.ledger.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    runs = json.dumps([argv(case, False) for case in TOWER_CASES])
    child = subprocess.run([sys.executable, "-c", _TIMED_RUNS, runs], env=env, timeout=60,
                           capture_output=True, text=True, preexec_fn=_cap_address_space)
    assert child.returncode == 0, child.stderr
    errors = child.stderr.splitlines()
    assert len(errors) == len(TOWER_CASES)
    for (code, seconds, peak), error in zip(json.loads(child.stdout), errors):
        assert code == 1 and seconds < 1 and peak < 32 * 2**20, (code, seconds, peak)
        assert error.startswith("error: the extraction depth s = ceil(log_(3/2) eps^-2) at eps = ")
        assert error.endswith(" has more than 67108864 bits")
