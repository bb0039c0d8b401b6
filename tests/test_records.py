"""The result records are immutable NamedTuples with their historical reprs."""

import pytest

from quasifix.certify import (
    Certificate,
    CertifyConfig,
    CertifyError,
    CertVerdict,
    CheckResult,
    SearchOutcome,
    WreathData,
)
from quasifix.dynamics import ContainmentReport, QuasiFixedWitness, VarietySpec
from quasifix.freegroup import IntMatrix2, StallingsGraph
from quasifix.gf import field_create
from quasifix.matrep import OrbitResult
from quasifix.poly import parse_poly

F9 = field_create(3, 2)
TRACE = ((((0,), (1,), (1,), (0,)),),)
CHECK = CheckResult("structure", "fail", "bad")

# (built by position, built by keyword, repr printed before the records were NamedTuples)
RECORDS = [
    (CertifyConfig(), CertifyConfig(s_max=6, seeds_per_field=64, orbit_budget=10**7),
     "CertifyConfig(s_max=6, seeds_per_field=64, orbit_budget=10000000, seed=0, "
     "allow_noninjective=False)"),
    (CertifyConfig(3, 64, 10**7, 7), CertifyConfig(seed=7, s_max=3),
     "CertifyConfig(s_max=3, seeds_per_field=64, orbit_budget=10000000, seed=7, "
     "allow_noninjective=False)"),
    (Certificate(1, ("a",), "a", 5, 1, 1, TRACE, 0),
     Certificate(rank=1, images=("a",), word="a", p=5, s=1, period=1, trace=TRACE, seed=0),
     "Certificate(rank=1, images=('a',), word='a', p=5, s=1, period=1, "
     "trace=((((0,), (1,), (1,), (0,)),),), seed=0, format_version=1, declared_head=None)"),
    (SearchOutcome(None, ((5, 1, 64),), "budget exhausted"),
     SearchOutcome(certificate=None, frontier=((5, 1, 64),), reason="budget exhausted"),
     "SearchOutcome(certificate=None, frontier=((5, 1, 64),), reason='budget exhausted', "
     "verdict=None)"),
    (WreathData(2, (True, False), True, (True, True)),
     WreathData(period=2, relations_hold=(True, False), w_first_coordinate_nontrivial=True,
                steps_close=(True, True)),
     "WreathData(period=2, relations_hold=(True, False), w_first_coordinate_nontrivial=True, "
     "steps_close=(True, True))"),
    (CHECK, CheckResult(name="structure", status="fail", detail="bad"),
     "CheckResult(name='structure', status='fail', detail='bad')"),
    (CertVerdict((CHECK,)), CertVerdict(checks=(CHECK,)),
     "CertVerdict(checks=(CheckResult(name='structure', status='fail', detail='bad'),))"),
    (QuasiFixedWitness((F9.from_int(4), F9.from_int(0)), 1, 2),
     QuasiFixedWitness(point=(F9.from_int(4), F9.zero()), m=1, field_degree=2),
     "QuasiFixedWitness(point=(1 + t, 0), m=1, field_degree=2)"),
    (VarietySpec(), VarietySpec(polys=()), "VarietySpec(polys=())"),
    (VarietySpec.parse(["x1^2+x2"], 2, 3), VarietySpec(polys=(parse_poly("x1^2+x2", 2, 3),)),
     "VarietySpec(polys=(MPoly('x1^2+x2', nvars=2, p=3),))"),
    (StallingsGraph(frozenset({0}), frozenset({(0, 1, 0)}), 0),
     StallingsGraph(vertices=frozenset({0}), edges=frozenset({(0, 1, 0)}), basepoint=0),
     "StallingsGraph(vertices=frozenset({0}), edges=frozenset({(0, 1, 0)}), basepoint=0)"),
    (IntMatrix2(1, 2, 0, 1), IntMatrix2(a=1, b=2, c=0, d=1), "IntMatrix2(a=1, b=2, c=0, d=1)"),
    (OrbitResult(False, None, 0, 5, "budget"),
     OrbitResult(found=False, point=None, period=0, steps=5, reason="budget"),
     "OrbitResult(found=False, point=None, period=0, steps=5, reason='budget')"),
]


@pytest.mark.parametrize("positional, keyword, text", RECORDS,
                         ids=[text.split("(")[0] for _, _, text in RECORDS])
def test_construction_repr_and_immutability(positional, keyword, text):
    assert positional == keyword and hash(positional) == hash(keyword)
    assert type(positional) is type(keyword)
    assert repr(positional) == repr(keyword) == text
    assert positional._make(positional) == positional
    assert positional._replace() == positional
    field = positional._fields[0]
    with pytest.raises(AttributeError):
        setattr(positional, field, None)
    with pytest.raises(AttributeError):
        positional.extra = 1


def test_defaults():
    assert CertifyConfig()._asdict() == {
        "s_max": 6, "seeds_per_field": 64, "orbit_budget": 10**7, "seed": 0,
        "allow_noninjective": False}
    cert = Certificate(1, ("a",), "a", 5, 1, 1, TRACE, 0)
    assert (cert.format_version, cert.declared_head, cert.h) == (1, None, TRACE[0])
    outcome = SearchOutcome(None)
    assert (outcome.frontier, outcome.reason, outcome.verdict, outcome.found) == ((), "", None,
                                                                                   False)
    assert OrbitResult(True, None, 1, 1).reason == ""
    assert VarietySpec().polys == ()


def test_records_compare_as_tuples():
    assert IntMatrix2(1, 2, 0, 1) == (1, 2, 0, 1)
    assert IntMatrix2(1, 2, 0, 1) * IntMatrix2(1, 0, 2, 1) == IntMatrix2(5, 2, 2, 1)
    assert CertVerdict((CHECK,)).failures == ["structure"]


@pytest.mark.parametrize("build", [
    lambda: CertifyConfig(0),
    lambda: CertifyConfig(6, -1),
    lambda: CertifyConfig(orbit_budget=0),
    lambda: CertifyConfig()._replace(s_max=0),
    lambda: CertifyConfig()._replace(seeds_per_field=0),
    lambda: CertifyConfig._make((1, 1, 0, 0, False)),
    lambda: CertifyConfig()._make((0, 64, 10**7, 0, False)),
], ids=["position", "position-2", "keyword", "replace-s_max", "replace-seeds", "make",
        "make-on-instance"])
def test_config_counts_checked_on_every_path(build):
    with pytest.raises(CertifyError, match=">= 1"):
        build()


def test_config_replace_and_make_keep_the_class():
    config = CertifyConfig()._replace(seed=5)
    assert type(config) is CertifyConfig and config.seed == 5
    assert CertifyConfig._make(config) == config
    assert type(CertifyConfig._make(config)) is CertifyConfig


def test_containment_report_is_mutable_and_starts_empty():
    first, second = ContainmentReport(), ContainmentReport()
    first.checked += 1
    first.violations.append("w")
    assert first.ok is False and first.checked == 1
    assert second.ok and second.checked == 0 and second.violations == []
