"""CLI behaviour: exit codes, wire formats, schema validity, determinism."""

import gc
import hashlib
import importlib
import json
from importlib import resources as importlib_resources

import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from breakops.cli import main
from breakops.rational import PoleError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def validators():
    root = importlib_resources.files("breakops") / "schemas"
    docs = {}
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            docs[entry.name] = json.loads(entry.read_text())
    registry = Registry().with_resources(
        [(doc["$id"], Resource.from_contents(doc)) for doc in docs.values()]
    )
    return {
        name.removesuffix(".schema.json"): Draft7Validator(doc, registry=registry)
        for name, doc in docs.items()
    }


def test_classify_json(capsys, validators):
    code, out, _ = run_cli(capsys, "classify", "--lambda=-1", "--nu", "2", "-N", "1", "-m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 1 and doc["sporadic"] and doc["all_sbos_differential"]
    validators["classification"].validate(doc)


def test_classify_rational_lambda(capsys, validators):
    code, out, _ = run_cli(capsys, "classify", "--lambda=1/2", "--nu=7/2", "-N", "1", "-m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 0
    validators["classification"].validate(doc)


def test_classify_unsupported_regime_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--lambda=-1", "--nu", "2", "-N", "2", "-m", "1")
    assert code == 2
    assert "unsupported" in err


def test_classify_validates_params_like_solve(capsys):
    flags = ("--lambda", "0", "--nu", "0", "-N", "-1", "-m", "0")
    for command in ("classify", "solve"):
        code, out, err = run_cli(capsys, command, *flags)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "N must be a natural number"}


def test_classify_bad_rational_exits_2(capsys):
    code, _, _ = run_cli(capsys, "classify", "--lambda=zzz", "--nu", "2", "-N", "1", "-m", "2")
    assert code == 2


def test_solve_generator(capsys, validators):
    code, out, _ = run_cli(capsys, "solve", "--lambda=-1", "--nu", "2", "-N", "1", "-m", "2")
    assert code == 0
    doc = json.loads(out)
    validators["solution"].validate(doc)
    assert doc["k_min"] == 1
    coeffs = [c for comp in doc["components"] for c in comp]
    nonzero = [c for c in coeffs if c != {"re": "0", "im": "0"}]
    assert nonzero[0] == {"re": "1", "im": "0"}  # first nonzero coefficient is 1


def test_solve_empty_exits_3(capsys):
    code, out, _ = run_cli(capsys, "solve", "--lambda=0", "--nu", "3", "-N", "1", "-m", "2")
    assert code == 3
    assert json.loads(out)["dimension"] == 0


def test_solve_negative_m_via_duality(capsys, validators):
    code, out, _ = run_cli(capsys, "solve", "--lambda=-1", "--nu", "2", "-N", "1", "-m", "-2")
    assert code == 0
    doc = json.loads(out)
    validators["solution"].validate(doc)
    assert doc["via_duality"] is True


def test_operator_both_forms(capsys, validators):
    code, out, _ = run_cli(
        capsys, "operator", "--lambda=-1", "--nu", "1", "-N", "0", "-m", "2", "--form", "both"
    )
    assert code == 0
    doc = json.loads(out)
    validators["operator"].validate(doc)
    assert doc["paper"] == [{"d": 0, "p": 0, "q": 2, "r": 0, "coeff": {"re": "1", "im": "0"}}]
    assert doc["proportionality"] == {"re": "4", "im": "0"}


def test_operator_empty_space_exits_3(capsys):
    code, out, _ = run_cli(
        capsys, "operator", "--lambda=-1", "--nu", "3", "-N", "1", "-m", "2"
    )
    assert code == 3
    assert json.loads(out)["dimension"] == 0


def test_operator_latex(capsys):
    code, out, _ = run_cli(
        capsys, "operator", "--lambda=-1", "--nu", "2", "-N", "1", "-m", "2", "--format", "latex"
    )
    assert code == 0
    assert out.strip() == "\\left(-2\\right) \\partial_{\\bar z}^{3} \\otimes u_{2}^{\\vee}"


def test_verify_quick_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hypergeom", "--quick")
    assert code == 0
    assert "cases=" in out and "FAIL" not in out


def test_verify_json_schema(capsys, validators):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "hypergeom", "--quick", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    validators["verify"].validate(doc)
    assert doc["total_failures"] == 0


def test_sweep_small_grid(tmp_path, capsys, validators):
    out_file = tmp_path / "certs.json"
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--max-N", "0",
        "--m-span", "2",
        "--a-extra", "2",
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    validators["sweep"].validate(doc)
    assert doc["summary"]["failures"] == 0
    assert doc["summary"]["checked"] == len(doc["certificates"]) > 0
    keys = [
        (c["params"]["N"], c["params"]["m"], c["params"]["a"], c["params"]["lambda"])
        for c in doc["certificates"]
    ]
    assert len(set(keys)) == len(keys)


def test_sweep_jobs_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    base = ["sweep", "--max-N", "1", "--m-span", "2", "--a-extra", "1"]
    assert main(base + ["--jobs", "1", "--out", str(first)]) == 0
    assert main(base + ["--jobs", "8", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        ("--max-N", "-1"),
        ("--m-span", "0"),
        ("--m-span", "-2"),
        ("--max-N", "0", "--a-extra", "-1"),
        ("--jobs", "0"),
        ("--jobs", "-3"),
    ],
)
def test_sweep_empty_grid_or_bad_jobs_exits_2(tmp_path, capsys, flags):
    out_file = tmp_path / "empty.json"
    code, _, err = run_cli(capsys, "sweep", *flags, "--out", str(out_file))
    assert code == 2
    assert "error" in json.loads(err)
    assert not out_file.exists()


@pytest.mark.parametrize("flags", [("--max-ell", "-3"), ("--max-n", "-1")])
def test_verify_empty_grid_exits_2(capsys, flags):
    code, out, err = run_cli(capsys, "verify", "--suite", "gegenbauer", *flags)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_sweep_jobs_clamped_without_starting_processes(tmp_path, capsys, monkeypatch):
    from breakops import sweep

    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
    base = ["sweep", "--max-N", "0", "--m-span", "1", "--a-extra", "0"]
    tasks = len(sweep.build_tasks(sweep.SweepConfig(max_n=0, m_span=1, a_extra=0)))
    assert main(base + ["--jobs", "1000000", "--out", str(tmp_path / "many.json")]) == 0
    assert seen == [min(3, tasks)]
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    assert main(base + ["--jobs", "1000000", "--out", str(tmp_path / "one.json")]) == 0
    assert seen == [min(3, tasks)]  # one CPU: no pool at all
    capsys.readouterr()
    assert (tmp_path / "many.json").read_bytes() == (tmp_path / "one.json").read_bytes()


def test_main_leaves_no_argparse_garbage(capsys):
    """Repeated calls reuse one parser instead of leaving a parser's cycles to the collector."""
    argv = ["classify", "--lambda=-1", "--nu", "2", "-N", "1", "-m", "2"]
    assert main(argv) == 0  # warm-up
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        leftovers = [obj for obj in gc.garbage if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert leftovers == []


def test_verify_gegenbauer_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "gegenbauer", "--quick")
    assert code == 0
    assert "FAIL" not in out


def test_classify_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--lambda=-1", "--nu", "2", "-N", "1", "-m", "2", "--format", "text"
    )
    assert code == 0
    assert "one-dimensional" in out


def test_solve_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--lambda=-1", "--nu", "2", "-N", "1", "-m", "2", "--format", "text"
    )
    assert code == 0
    assert out.startswith("dimension 1")


def test_operator_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "operator", "--lambda=-1", "--nu", "2", "-N", "1", "-m", "2", "--format", "text"
    )
    assert code == 0
    assert "[paper]" in out and "u_2" in out


def test_operator_canonical_form_negative_m(capsys, validators):
    code, out, _ = run_cli(
        capsys, "operator", "--lambda=-1", "--nu", "2", "-N", "1", "-m", "-2",
        "--form", "canonical",
    )
    assert code == 0
    doc = json.loads(out)
    validators["operator"].validate(doc)
    assert doc["canonical"] == [
        {"d": 0, "p": 3, "q": 0, "r": 0, "coeff": {"re": "8", "im": "0"}}
    ]


POINT = ("--lambda=-1", "--nu", "2", "-N", "1", "-m", "2")


@pytest.mark.parametrize(
    "module, stage, error, argv",
    [
        ("fsystem", "nullspace", ArithmeticError, ("solve", *POINT)),
        ("operator", "const_a", PoleError, ("operator", *POINT, "--form", "paper")),
        ("operator", "read_off", ArithmeticError, ("operator", *POINT, "--form", "canonical")),
        ("fsystem", "nullspace", PoleError, ("sweep", "--max-N", "0", "--m-span", "1", "--a-extra", "0")),
    ],
)
def test_internal_check_errors_exit_4(tmp_path, capsys, monkeypatch, module, stage, error, argv):
    def fail(*args, **kwargs):
        raise error("cross-check failed")

    monkeypatch.setattr(importlib.import_module(f"breakops.{module}"), stage, fail)
    out_file = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 4
    assert out == "" and not out_file.exists()
    assert "cross-check failed" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", *POINT),
        ("solve", *POINT),
        ("operator", *POINT),
        ("sweep", "--max-N", "0", "--m-span", "1", "--a-extra", "0"),
        ("verify", "--suite", "gegenbauer", "--max-ell", "1", "--quick"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, argv):
    from breakops import sweep

    def fail(*args, **kwargs):
        pytest.fail("sweep computed its grid before checking --out")

    monkeypatch.setattr(sweep, "run_sweep", fail)
    for out_file, reason in ((tmp_path / "missing" / "out.json", "No such file or directory"),
                             (tmp_path, "Is a directory")):
        code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert json.loads(err)["error"] == f"cannot write --out {out_file}: {reason}"


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
def test_operator_routes_disagreeing_exit_4_in_every_format(capsys, monkeypatch, fmt):
    from breakops import operator

    monkeypatch.setattr(operator, "compare_up_to_scalar", lambda first, second: None)
    code, out, _ = run_cli(capsys, "operator", *POINT, "--form", "both", "--format", fmt)
    assert code == 4
    assert json.loads(out)["error"] == "operator routes disagree"


# sha256 of the stdout bytes at the README point and its mirror: refactors
# below the CLI must leave every format of these commands byte for byte as is
README_OUTPUTS = {
    ("classify", "json", "2"): "3ed26ba5061be2e40d19240a8ec6618e1f37cc5b009ebfc39b93d148425d14a7",
    ("classify", "text", "2"): "2739cfa047ec3fd31cd5b3e927bc719b70f96d12022ab0845393c1b966d87284",
    ("solve", "json", "2"): "3289d996b6196b4c393c95e7c1ab7722f8ef15e1d8bf748f8afbf77ee49c3052",
    ("solve", "text", "2"): "f2bfecca376a126bc6ab0a7bd34b974408258f11778b571ad215161c961f737f",
    ("operator", "json", "2"): "1f19f0991fd69d70b30e3866bd8695a6beb9b6960b61b2b61f67f84b8cf62006",
    ("operator", "text", "2"): "7b8ff5f510115a242d8e4c6a838acafed5bd2c265b6985a4ef09a2f3850e9a73",
    ("operator", "latex", "2"): "d0120b527d1e956090817f39e1dbec236091895eb6607ee1ac7666dae2b2511d",
    ("classify", "json", "-2"): "3ed26ba5061be2e40d19240a8ec6618e1f37cc5b009ebfc39b93d148425d14a7",
    ("classify", "text", "-2"): "2739cfa047ec3fd31cd5b3e927bc719b70f96d12022ab0845393c1b966d87284",
    ("solve", "json", "-2"): "67d465220877de4298cb2256def20ddca071b81897ee0bfab3f303b36caee8f9",
    ("solve", "text", "-2"): "f2bfecca376a126bc6ab0a7bd34b974408258f11778b571ad215161c961f737f",
    ("operator", "json", "-2"): "5d2779ff390c2af64dc39996b454e9826b37bb82bbfa31216dac53db62ff0cb7",
    ("operator", "text", "-2"): "e1e3e874fb31baf7e871284d9fcee2e5aaabacc605281fe7cd6f48573cd48f2f",
    ("operator", "latex", "-2"): "8904ffc44ae1ea2ae8489dce8242de33f95b944de1b9ffedd569e3ed7b598cb8",
}


@pytest.mark.parametrize("command, fmt, m", list(README_OUTPUTS), ids="-".join)
def test_readme_point_output_bytes(capsys, command, fmt, m):
    flags = ("--form", "both") if command == "operator" else ()
    point = ("--lambda=-1", "--nu", "2", "-N", "1", "-m", m)
    code, out, _ = run_cli(capsys, command, *point, *flags, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_OUTPUTS[command, fmt, m]
