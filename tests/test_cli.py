"""CLI behavior: exit codes, JSON determinism, emit round trips."""

import json
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES
from orbitrank.inference import load_filtration

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, **kw):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "orbitrank.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    """Importing the CLI adds neither module to what a fresh interpreter has
    loaded at startup, so modules that ``site`` imports do not count."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH", "")]))
    probe = "import sys; s = set(sys.modules); import orbitrank.cli; print(*sorted(set(sys.modules) - s))"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    added = res.stdout.split()
    assert res.returncode == 0 and "orbitrank.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


def test_analyze_axb_success():
    res = run_cli("analyze", "catalog:axb", "--json", "-")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["invariants"] == {
        "real_rank": 1,
        "stable_rank": 2,
        "hypothesis": "exponential (heuristic)",
    }
    assert report["coadjoint"]["p_polynomial"] == "xi_Y^2"
    assert report["projections"]["verdict"] == "exists_open_orbits"
    assert report["inference"]["agreement"] is True
    assert set(report) == {
        "algebra", "structure", "exponentiality", "invariants",
        "coadjoint", "projections", "inference",
    }


def test_analyze_oscillator_refused():
    res = run_cli("analyze", "catalog:oscillator", "--json", "-")
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert report["invariants"]["refused"]["reason"] == "NotExponential"
    assert report["invariants"]["refused"]["witness"] == ["1", "0", "0", "0"]
    assert report["exponentiality"]["status"] == "certified_no"


def test_analyze_sl2_not_solvable():
    res = run_cli("analyze", "catalog:sl2", "--json", "-")
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert report["exponentiality"]["refused"]["reason"] == "NotSolvable"
    assert report["structure"]["solvable"] is False
    assert report["coadjoint"]["p_polynomial"] == "0"


def test_analyze_bad_file_exit_1(tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_text("lie 1\ndim 2\nbasis X\n")
    res = run_cli("analyze", str(bad))
    assert res.returncode == 1
    assert "error:" in res.stderr


def assert_input_error(res, *fragments):
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    for fragment in fragments:
        assert fragment in res.stderr


def test_analyze_zero_denominator_in_lie_file(tmp_path):
    bad = tmp_path / "zero.lie"
    bad.write_text("lie 1\ndim 2\nbasis X Y\n[X,Y] = 1/0 Y\n")
    assert_input_error(run_cli("analyze", str(bad)), "line 4, column 9", "zero denominator")


def test_analyze_zero_denominator_in_catalog_spec():
    assert_input_error(run_cli("analyze", "catalog:grelaud:1/0"), "zero denominator")


def test_analyze_lie_file_above_dimension_cap(tmp_path):
    big = tmp_path / "big.lie"
    big.write_text("lie 1\ndim 65\nbasis X\n")
    assert_input_error(run_cli("analyze", str(big)), "line 2, column 5", "[1, 64]")


def test_analyze_lie_file_of_dimension_zero(tmp_path):
    empty = tmp_path / "empty.lie"
    empty.write_text("lie 1\ndim 0\nbasis\n")
    assert_input_error(run_cli("analyze", str(empty)), "line 2, column 5", "[1, 64]")


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_lie_file_not_utf8(tmp_path, command):
    bad = tmp_path / "bad.lie"
    bad.write_bytes(b"lie 1\ndim 2\nbasis X Y\xff\n")
    assert_input_error(run_cli(command, str(bad)), "line 3, column 10", "not valid UTF-8")


@pytest.mark.parametrize("args, fragment", [(["--samples", "abc"], "--samples"), (["--bogus"], "--bogus")])
def test_usage_error_exits_1_with_usage(args, fragment):
    res = run_cli("analyze", "catalog:axb", *args)
    assert res.returncode == 1
    assert res.stderr.startswith("usage: orbit-rank")
    assert "Traceback" not in res.stderr
    errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and fragment in errors[0]
    assert res.stdout == ""


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_analyze_samples_below_one_rejected(samples):
    res = run_cli("analyze", "catalog:axb", "--samples", samples, "--json", "-")
    assert_input_error(res, "--samples must be at least 1")
    assert res.stdout == ""


@pytest.mark.parametrize("spec", ["catalog:abelian:65", "catalog:heisenberg:32"])
def test_analyze_catalog_spec_above_dimension_cap(spec):
    assert_input_error(run_cli("analyze", spec), "above the cap of 64")
    assert_input_error(run_cli("validate", spec), "above the cap of 64")


@pytest.mark.parametrize(
    "doc,where",
    [
        pytest.param(doc, where, id=doc)
        for doc, where in [
            ('{"filtration": 1, "nodes": [1]}', "nodes[0]"),
            ('{"filtration": 1, "nodes": 7}', "nodes"),
            ('{"filtration": 1, "nodes": [{"name": "a", "attrs": 3}]}', "nodes[0].attrs"),
            ('{"filtration": 1, "nodes": [{"name": "a"}], "flags": 5}', "flags"),
        ]
    ],
)
def test_infer_malformed_json_document(tmp_path, doc, where):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert_input_error(run_cli("infer", str(path)), f"error: {where}: ")


_NODE_A = '{"name": "a", "attrs": {"kind": "elementary"}}'


@pytest.mark.parametrize(
    "name,doc,fragments",
    [
        (
            "doc.json",
            f'{{"filtration": 1, "nodez": [{_NODE_A}]}}',
            ["error: nodez: ", "unknown key 'nodez'"],
        ),
        (
            "doc.json",
            '{"filtration": 1, "nodes": [{"name": "a", "atrs": {"kind": "elementary"}}]}',
            ["error: nodes[0].atrs: ", "unknown key 'atrs'"],
        ),
        (
            "doc.json",
            f'{{"filtration": 1, "nodes": [{_NODE_A}], "nodes": [{_NODE_A}]}}',
            ["error: nodes: ", "duplicate key 'nodes'"],
        ),
        (
            "doc.json",
            '{"filtration": 1, "nodes": [{"name": "a", "attrs": {"kind": "elementary", "kind": "generic"}}]}',
            ["error: nodes[0].attrs.kind: ", "attribute 'kind' set twice"],
        ),
        (
            "doc.json",
            f'{{"filtration": 1, "nodes": [{_NODE_A}], "flags": {{"real_line": true, "real_line": false}}}}',
            ["error: flags.real_line: ", "flag 'real_line' set twice"],
        ),
        (
            "doc.filt",
            "filtration 1\nnode a\nflags real_line=true real_line=false\n",
            ["error: line 3: ", "flag 'real_line' set twice"],
        ),
        (
            "doc.json",
            '{"filtration": 1, "nodes": [{"name": "a b"}]}',
            ["error: nodes[0].name: ", 'bad node name "a b"'],
        ),
        (
            "doc.json",
            '{"filtration": 1, "nodes": [{"name": ""}]}',
            ["error: nodes[0].name: ", 'bad node name ""'],
        ),
        (
            "doc.json",
            f'{{"filtration": true, "nodes": [{_NODE_A}]}}',
            ["error: filtration: ", "format version must be 1"],
        ),
        (
            "doc.filt",
            "filtration 1\nnode a\nattr spectrum_dim = 1_000\n",
            ["error: line 3: ", "spectrum_dim must be a natural number"],
        ),
    ],
    ids=[
        "unknown_document_key",
        "unknown_node_key",
        "duplicate_document_key",
        "duplicate_attribute_key",
        "duplicate_flag_key",
        "repeated_text_flag",
        "node_name_with_space",
        "empty_node_name",
        "version_true",
        "underscored_integer",
    ],
)
def test_infer_refuses_keys_and_values_it_used_to_drop(tmp_path, name, doc, fragments):
    path = tmp_path / name
    path.write_text(doc)
    assert_input_error(run_cli("infer", str(path)), *fragments)


@pytest.mark.parametrize(
    "name,doc,fragments",
    [
        (
            "doc.filt",
            "filtration 1\nnode total\n",
            ["error: line 2: ", "'total' is reserved"],
        ),
        (
            "doc.json",
            '{"filtration": 1, "nodes": [{"name": "total"}]}',
            ["error: nodes[0].name: ", "'total' is reserved"],
        ),
        (
            "doc.filt",
            "filtration 1\nnode a\nnode b\nattr kind = generic\nattr ambient_dim = 65\n",
            ["error: line 5: ", "ambient_dim=65 outside [0, 64]"],
        ),
        (
            "doc.json",
            '{"filtration": 1, "nodes": [{"name": "a"}, {"name": "b", "attrs": {"ambient_dim": 65}}]}',
            ["error: nodes[1].attrs.ambient_dim: ", "ambient_dim=65 outside [0, 64]"],
        ),
        (
            "doc.filt",
            "filtration 1\nnode a\nattr kind = elementary\nattr spectrum_dim = 2\n",
            ["error: line 4: ", "spectrum_dim=2 contradicts kind 'elementary'"],
        ),
        (
            "doc.json",
            '{"filtration": 1, "nodes": [{"name": "a", "attrs": {"kind": "elementary", "spectrum_dim": 2}}]}',
            ["error: nodes[0].attrs.spectrum_dim: ", "spectrum_dim=2 contradicts kind 'elementary'"],
        ),
        (
            "doc.filt",
            "filtration 1\nnode a\nattr index_to_below = nonzero\n",
            ["error: line 3: ", "no ideal below the first node"],
        ),
        (
            "doc.json",
            '{"filtration": 1, "nodes": [{"name": "a", "attrs": {"index_to_below": "nonzero"}}]}',
            ["error: nodes[0].attrs.index_to_below: ", "no ideal below the first node"],
        ),
    ],
    ids=[
        "reserved_name_text",
        "reserved_name_json",
        "out_of_range_text",
        "out_of_range_json",
        "kind_contradiction_text",
        "kind_contradiction_json",
        "index_below_first_node_text",
        "index_below_first_node_json",
    ],
)
def test_infer_invalid_filtration_names_its_place(tmp_path, name, doc, fragments):
    path = tmp_path / name
    path.write_text(doc)
    assert_input_error(run_cli("infer", str(path)), *fragments)


@pytest.mark.parametrize(
    "name,content,fragments",
    [
        ("doc.filt", b"filtration 1\nnode a\xff\n", ["error: line 2: ", "not valid UTF-8"]),
        ("doc.filt", b"filtration 1\rnode a\xff\r", ["error: line 2: ", "not valid UTF-8"]),
        ("doc.json", b"[" * 200000, ["error: line 1: ", "nested too deeply"]),
    ],
    ids=["not_utf8", "not_utf8_cr_line_ends", "nested_too_deeply"],
)
def test_infer_undecodable_document(tmp_path, name, content, fragments):
    path = tmp_path / name
    path.write_bytes(content)
    assert_input_error(run_cli("infer", str(path)), *fragments)


@pytest.mark.parametrize("fixture", ["axb", "toeplitz", "nilpotent_special"])
def test_infer_json_twin_of_text_fixture(fixture):
    text, twin = (os.path.join(FIXTURES, f"{fixture}.{ext}") for ext in ("filt", "json"))
    assert load_filtration(twin) == load_filtration(text)
    for extra in ([], ["--json", "-"]):
        a, b = run_cli("infer", text, *extra), run_cli("infer", twin, *extra)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_json_bytes_deterministic():
    a = run_cli("analyze", "catalog:direct_sum:axb+axb", "--samples", "50", "--json", "-")
    b = run_cli("analyze", "catalog:direct_sum:axb+axb", "--samples", "50", "--json", "-")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_emit_then_analyze_matches_catalog(tmp_path):
    emitted = tmp_path / "h1.lie"
    res = run_cli("catalog", "emit", "heisenberg:1", "--out", str(emitted))
    assert res.returncode == 0
    from_file = run_cli("analyze", str(emitted), "--json", "-")
    from_name = run_cli("analyze", "catalog:heisenberg:1", "--json", "-")
    assert from_file.stdout == from_name.stdout
    assert from_file.returncode == from_name.returncode == 0


def test_validate_ok_and_broken():
    ok = run_cli("validate", os.path.join(FIXTURES, "axb.lie"))
    assert ok.returncode == 0 and "ok:" in ok.stdout
    broken = run_cli("validate", os.path.join(FIXTURES, "filiform4_broken.lie"))
    assert broken.returncode == 1
    assert "Jacobi" in broken.stderr and "(0,1,2)" in broken.stderr


def test_infer_toeplitz():
    res = run_cli("infer", os.path.join(FIXTURES, "toeplitz.filt"))
    assert res.returncode == 0
    assert "total: rr=[1,1] tsr=[2,2]" in res.stdout
    assert "R17" in res.stdout and "R19 total tsr: [1,2] -> [2,2]" in res.stdout


def test_infer_json_facts():
    res = run_cli("infer", os.path.join(FIXTURES, "nilpotent_special.filt"), "--json", "-")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["facts"]["total"]["rr"] == [3, 3]


def test_infer_no_compacts_flag():
    res = run_cli("infer", os.path.join(FIXTURES, "toeplitz.filt"), "--no-compacts-facts")
    assert res.returncode == 0
    assert "R17" not in res.stdout


@pytest.mark.parametrize(
    "flags,message",
    [
        ('{"group_derived": "false", "real_line": "false"}', "flag 'group_derived' must be true or false, got \"false\""),
        ('{"group_derived": true, "real_line": "false"}', "flag 'real_line' must be true or false, got \"false\""),
        ('{"real_line": 0}', "flag 'real_line' must be true or false, got 0"),
        ('{"group_derived": null}', "flag 'group_derived' must be true or false, got null"),
    ],
)
def test_infer_json_flags_must_be_booleans(tmp_path, flags, message):
    doc = tmp_path / "flags.json"
    doc.write_text(
        '{"filtration": 1, "nodes": [{"name": "a", "attrs": {"kind": "elementary"}}], '
        f'"flags": {flags}}}'
    )
    assert_input_error(run_cli("infer", str(doc)), message)


def test_infer_json_document(tmp_path):
    doc = tmp_path / "point.json"
    doc.write_text(
        '{"filtration": 1, "nodes": [{"name": "only", '
        '"attrs": {"kind": "commutative", "spectrum_dim": 0, "spectrum_compact": true}}]}'
    )
    res = run_cli("infer", str(doc))
    assert res.returncode == 0
    assert "total: rr=[0,0] tsr=[1,1]" in res.stdout


def test_infer_contradictory_doc_exit_1(tmp_path):
    doc = tmp_path / "bad.filt"
    doc.write_text(
        "filtration 1\nnode only\nattr kind = commutative\nattr spectrum_dim = 0\n"
        "attr spectrum_compact = false\nattr no_compact_spectrum_component = true\n"
    )
    res = run_cli("infer", str(doc))
    assert res.returncode == 1
    assert "rule" in res.stderr


def test_not_simply_connected_bound():
    res = run_cli("analyze", "catalog:abelian:1", "--not-simply-connected", "--json", "-")
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert report["invariants"]["real_rank_upper_bound"] == 1
    assert report["invariants"]["upper_bound_possibly_strict"] is True


def test_assume_exponential_override():
    res = run_cli("analyze", "catalog:oscillator", "--assume-exponential", "--json", "-")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["exponentiality"] == {"status": "asserted"}
    assert report["invariants"]["real_rank"] == 1
    assert report["invariants"]["hypothesis"] == "exponential (asserted)"


def test_batch_analyze_order_and_exit():
    res = run_cli("analyze", "catalog:axb", "catalog:oscillator", "--json", "-")
    assert res.returncode == 2
    reports = json.loads(res.stdout)
    assert isinstance(reports, list) and len(reports) == 2
    assert reports[0]["algebra"]["basis"] == ["X", "Y"]
    assert reports[1]["algebra"]["basis"] == ["H", "P", "Q", "E"]


def test_batch_analyze_reports_each_failed_input(tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_bytes(b"lie 1\ndim 2\nbasis X Y\xff\n")
    res = run_cli("analyze", str(bad), "catalog:axb", "--json", "-")
    assert res.returncode == 1
    reports = json.loads(res.stdout)
    assert reports[0] == {"source": str(bad), "error": "line 3, column 10: not valid UTF-8: invalid start byte"}
    assert reports[1]["algebra"]["basis"] == ["X", "Y"]
    assert res.stderr == f"error: {bad}: line 3, column 10: not valid UTF-8: invalid start byte\n"
    text = run_cli("analyze", "catalog:axb", str(bad), "catalog:nope")
    assert text.returncode == 1
    assert text.stdout.count("algebra:") == 1 and "Traceback" not in text.stderr
    assert len(text.stderr.splitlines()) == 2
    worst = run_cli("analyze", "catalog:oscillator", str(bad), "--json", "-")
    assert worst.returncode == 2  # a refusal outranks an input error
    assert [set(r) >= {"source", "error"} for r in json.loads(worst.stdout)] == [False, True]


def test_seed_recorded_in_report():
    res = run_cli("analyze", "catalog:axb", "--seed", "7", "--samples", "50", "--json", "-")
    report = json.loads(res.stdout)
    assert report["coadjoint"]["component_estimate"]["seed"] == 7
    assert report["exponentiality"]["seed"] == 7
