"""Sweep harness: task grid, certificate content, ordering, summary."""

import dataclasses
import hashlib
from fractions import Fraction as F

from breakops import cli, fsystem, operator
from breakops.sweep import Certificate, SweepConfig, SweepTask, build_tasks, evaluate_task, run_sweep


SMALL = SweepConfig(max_n=1, m_span=2, a_extra=1)


def test_build_tasks_grid_shape():
    tasks = build_tasks(SMALL)
    assert all(task.m > task.N for task in tasks)
    assert all(task.m - task.N <= task.a <= task.m + task.N + 1 for task in tasks)
    lams = {task.lam for task in tasks}
    assert F(1, 2) in lams and F(-7, 3) in lams
    assert len(build_tasks(SweepConfig())) == 1488
    assert SweepConfig().to_json() == {
        "a_extra": 4,
        "extra_lambdas": ["1/2", "-7/3"],
        "include_negative_m": True,
        "lambda_pad_high": 2,
        "lambda_pad_low": 3,
        "m_offsets": [1, 2, 3, 4],
        "n_values": [0, 1, 2, 3],
        "operator_max_n": 2,
    }


def test_build_tasks_empty_grid():
    assert build_tasks(SweepConfig(m_span=0)) == []
    assert build_tasks(SweepConfig(max_n=-1)) == []


def test_evaluate_task_positive_and_mirror():
    task = build_tasks(SMALL)[0]
    certs = evaluate_task(task)
    assert len(certs) == 2
    positive, negative = certs
    assert positive.params.m == task.m and negative.params.m == -task.m
    assert positive.dimension_match and negative.dimension_match


ONE_DIMENSIONAL = SweepTask(N=1, m=2, a=3, lam=F(-1), include_negative=True, operator_max_n=2)


def test_failure_texts_of_both_orientations(monkeypatch):
    """Each orientation reports its own failure text when a route disagrees."""
    assert [c.failures for c in evaluate_task(ONE_DIMENSIONAL)] == [[], []]
    with monkeypatch.context() as patch:
        patch.setattr(operator, "compare_up_to_scalar", lambda first, second: None)
        positive, mirrored = evaluate_task(ONE_DIMENSIONAL)
    assert positive.failures == ["operator routes are not proportional by a nonzero scalar"]
    assert mirrored.failures == ["mirrored operator routes are not proportional"]
    with monkeypatch.context() as patch:
        patch.setattr(fsystem, "solve_xi", lambda params: fsystem.XiResult(0, None))
        positive, mirrored = evaluate_task(ONE_DIMENSIONAL)
    assert positive.failures == ["nullspace dimension disagrees with the predicate"]
    assert mirrored.failures == ["mirrored dimension disagrees with the predicate"]


def test_run_sweep_small_grid_all_pass():
    certificates, summary = run_sweep(SMALL)
    assert summary["failures"] == 0
    assert summary["checked"] == len(certificates)
    assert summary["dim0"] + summary["dim1"] == summary["checked"]
    assert summary["dim1"] > 0
    keys = [c.sort_key() for c in certificates]
    assert keys == sorted(keys)
    # rational lambda points never reach dimension one
    for cert in certificates:
        if cert.params.lam == F(1, 2):
            assert cert.xi_dimension == 0 and cert.classification.dimension == 0


def test_certificate_checks_populated_on_dim1():
    certificates, _ = run_sweep(SweepConfig(max_n=1, m_span=1, a_extra=1))
    rich = [c for c in certificates if c.xi_dimension == 1 and c.params.m > 0]
    assert rich
    for cert in rich:
        assert cert.generator_proportionality is not None and bool(cert.generator_proportionality)
        assert cert.annihilated is True and cert.even_space_ok is True
        assert cert.operator_scalar is not None and bool(cert.operator_scalar)
        assert cert.operator_order_ok is True
    mirrored = [c for c in certificates if c.xi_dimension == 1 and c.params.m < 0]
    assert mirrored
    for cert in mirrored:
        assert cert.duality_involution_ok is True
        assert cert.operator_scalar is not None and bool(cert.operator_scalar)


def test_certificate_json_shape():
    certificates, _ = run_sweep(SweepConfig(max_n=0, m_span=1, a_extra=0))
    doc = certificates[0].to_json()
    assert set(doc) == {
        "params",
        "classification",
        "xi_dimension",
        "dimension_match",
        "generator_proportionality",
        "annihilated",
        "even_space_ok",
        "operator_scalar",
        "operator_order_ok",
        "duality_involution_ok",
        "failures",
        "pass",
    }
    assert isinstance(doc["pass"], bool)


def test_parallel_matches_serial():
    serial, summary_serial = run_sweep(SMALL)
    parallel, summary_parallel = run_sweep(dataclasses.replace(SMALL, jobs=4))
    assert summary_serial == summary_parallel
    assert [c.to_json() for c in serial] == [c.to_json() for c in parallel]


def test_desk_sweep_document_matches_its_recorded_digest(tmp_path):
    """The N <= 2 desk sweep writes the same bytes as when the digest was recorded."""
    out = tmp_path / "desk.json"
    argv = ["sweep", "--max-N", "2", "--m-span", "1", "--a-extra", "1", "--jobs", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    data = out.read_bytes()
    assert len(data) == 162527
    assert hashlib.sha256(data).hexdigest() == "bcb6c03e6d6b18ce84b86c3c880cb17fa66c08f6f536ca885126d21e5e34fc25"
