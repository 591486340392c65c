"""Command-line interface: artifacts, exit codes, determinism.

Most tests call ``main(argv)`` in-process so stdout/stderr are captured with
capsys; one test runs ``python3 -m disklab`` as a real subprocess to pin the
module entry point.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from disklab import disks, homology, retraction
from disklab.cli import EXIT_CAP, EXIT_CONFIG, EXIT_FAILED, EXIT_OK, main
from disklab.flagcomplex import (
    canonical_json,
    complex_to_json_obj,
    octahedral_sphere,
    write_text_file,
)

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")
GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "goldens.json")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_writes_surface_and_catalog(tmp_path, capsys):
    out = str(tmp_path / "b")
    code, stdout, _ = run(
        ["build", "--genus", "1", "--tubes", "2", "--out", out], capsys
    )
    assert code == EXIT_OK
    surface = json.loads((tmp_path / "b" / "surface.json").read_text())
    disks = json.loads((tmp_path / "b" / "disks.json").read_text())
    assert surface["genus_base"] == 1
    assert surface["tubes"] == 2
    assert len(disks["disks"]) == 46
    assert "46 disks" in stdout


def test_build_tubes_is_the_literal_tube_count(tmp_path, capsys):
    out = str(tmp_path / "b")
    code, _, _ = run(["build", "--genus", "1", "--tubes", "1", "--out", out], capsys)
    assert code == EXIT_OK
    surface = json.loads((tmp_path / "b" / "surface.json").read_text())
    assert surface["tubes"] == 1
    disks = json.loads((tmp_path / "b" / "disks.json").read_text())
    assert len(disks["disks"]) == 7


def test_build_is_deterministic_across_runs(tmp_path, capsys):
    texts = []
    for sub in ("x", "y", "z"):
        out = str(tmp_path / sub)
        code, _, _ = run(["build", "--genus", "2", "--tubes", "2", "--out", out], capsys)
        assert code == EXIT_OK
        texts.append((tmp_path / sub / "disks.json").read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_build_rejects_nonpositive_tubes(tmp_path, capsys):
    code, _, stderr = run(
        ["build", "--genus", "1", "--tubes", "0", "--out", str(tmp_path)], capsys
    )
    assert code == EXIT_CONFIG
    assert "--tubes >= 1" in stderr


def test_build_rejects_bad_genus(tmp_path, capsys):
    code, _, stderr = run(
        ["build", "--genus", "0", "--tubes", "1", "--out", str(tmp_path)], capsys
    )
    assert code == EXIT_CONFIG
    assert "genus" in stderr


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_passes_and_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "c")
    code, stdout, _ = run(
        ["certify", "--genus", "1", "--tubes", "1", "--out", out], capsys
    )
    assert code == EXIT_OK
    assert stdout.splitlines()[-1].startswith("PASSED:")
    cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
    assert cert["passed"] is True
    assert cert["parameters"]["suspension_index"] == 1
    assert cert["parameters"]["tubes"] == 2
    assert cert["bounds"]["topological_index_upper"] == 2
    report = (tmp_path / "c" / "report.txt").read_text()
    assert "Result: PASSED" in report


def test_certify_certificates_are_byte_identical_across_runs(tmp_path, capsys):
    blobs = []
    for sub in ("a", "b", "c"):
        out = str(tmp_path / sub)
        code, _, _ = run(["certify", "--genus", "1", "--tubes", "2", "--out", out], capsys)
        assert code == EXIT_OK
        blobs.append((tmp_path / sub / "certificate.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--genus", "1", "--tubes", "1"],
        ["certify", "--genus", "1", "--tubes", "1"],
        ["homology", "x.json", "1"],
    ],
)
def test_seed_flag_is_rejected(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "0", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


@pytest.mark.parametrize(("genus", "tubes"), [(1, 4), (1, 5), (2, 4), (3, 4)])
def test_certify_bytes_match_recorded_goldens(genus, tubes, tmp_path, capsys):
    """certificate.json and report.txt are byte-identical to the recorded sha256 sums."""
    with open(GOLDENS, encoding="utf-8") as fh:
        expected = json.load(fh)[f"certify-g{genus}-n{tubes}"]
    out = tmp_path / "c"
    argv = ["certify", "--genus", str(genus), "--tubes", str(tubes), "--out", str(out)]
    code, _, _ = run(argv, capsys)
    assert code == EXIT_OK
    for name in ("certificate.json", "report.txt"):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected[name], name


@pytest.mark.parametrize(("genus", "arc_bound"), [(1, 7), (2, 5)])
def test_from_build_chain_bytes_match_recorded_goldens(genus, arc_bound, tmp_path, capsys):
    """build then certify --from-build write byte-identical files to the recorded sha256 sums."""
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    build_dir = tmp_path / "build"
    argv = ["build", "--genus", str(genus), "--tubes", "2", "--arc-bound", str(arc_bound)]
    assert run(argv + ["--out", str(build_dir)], capsys)[0] == EXIT_OK
    cert_dir = tmp_path / "certify"
    assert run(["certify", "--from-build", str(build_dir), "--out", str(cert_dir)], capsys)[0] == EXIT_OK
    for job, out in (
        (f"build-g{genus}-m2-k{arc_bound}", build_dir),
        (f"certify-from-build-g{genus}-k{arc_bound}", cert_dir),
    ):
        for name, digest in goldens[job].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (job, name)


def test_certify_from_build_builds_the_catalog_once(monkeypatch, tmp_path, capsys):
    # The catalog that checks disks.json is the one certified.
    build_dir = str(tmp_path / "build")
    assert run(["build", "--genus", "1", "--tubes", "3", "--out", build_dir], capsys)[0] == EXIT_OK
    calls = []
    build_disk_catalog = disks.build_disk_catalog

    def counting(*args, **kwargs):
        calls.append(args)
        return build_disk_catalog(*args, **kwargs)

    for module in (disks, retraction):
        monkeypatch.setattr(module, "build_disk_catalog", counting)
    code, _, _ = run(["certify", "--from-build", build_dir, "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_OK
    assert len(calls) == 1


def test_certify_from_build_matches_direct_run(tmp_path, capsys):
    build_dir = str(tmp_path / "build")
    code, _, _ = run(["build", "--genus", "1", "--tubes", "2", "--out", build_dir], capsys)
    assert code == EXIT_OK

    direct = str(tmp_path / "direct")
    code, _, _ = run(["certify", "--genus", "1", "--tubes", "1", "--out", direct], capsys)
    assert code == EXIT_OK

    derived = str(tmp_path / "derived")
    code, stdout, _ = run(["certify", "--from-build", build_dir, "--out", derived], capsys)
    assert code == EXIT_OK
    assert "PASSED" in stdout
    assert (tmp_path / "direct" / "certificate.json").read_bytes() == (
        tmp_path / "derived" / "certificate.json"
    ).read_bytes()


def test_certify_from_build_rejects_conflicting_flags(tmp_path, capsys):
    build_dir = str(tmp_path / "build")
    run(["build", "--genus", "1", "--tubes", "2", "--out", build_dir], capsys)
    code, _, stderr = run(
        ["certify", "--from-build", build_dir, "--genus", "2", "--out", str(tmp_path)],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert "conflicts with --from-build" in stderr


def test_certify_from_build_rejects_tampered_catalog(tmp_path, capsys):
    build_dir = tmp_path / "build"
    run(["build", "--genus", "1", "--tubes", "2", "--out", str(build_dir)], capsys)
    disks_path = build_dir / "disks.json"
    obj = json.loads(disks_path.read_text())
    obj["disks"][3]["type"] = "meridian"
    disks_path.write_text(json.dumps(obj))
    code, _, stderr = run(
        ["certify", "--from-build", str(build_dir), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert "disks.json" in stderr
    assert "disks[3]" in stderr


def test_certify_from_build_reports_json_parse_location(tmp_path, capsys):
    build_dir = tmp_path / "build"
    build_dir.mkdir()
    (build_dir / "disks.json").write_text('{"surface": {,}')
    code, _, stderr = run(
        ["certify", "--from-build", str(build_dir), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert "line 1 column" in stderr


def run_python(args, cwd):
    """``python3 ARGS`` in a fresh interpreter on the sources: (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)
    return result.returncode, result.stdout, result.stderr


NOT_UTF8 = b'{"vertices": [' + b"\xff\xfe"  # the bad byte sits at offset 14
TOO_DEEP = b"[" * 200000 + b"]" * 200000


@pytest.mark.parametrize(
    "content, where", [(NOT_UTF8, "byte 14"), (TOO_DEEP, "nested too deeply")], ids=["not-utf8", "too-deep"]
)
def test_certify_from_build_rejects_unparseable_bytes(content, where, tmp_path):
    build_dir = tmp_path / "build"
    build_dir.mkdir()
    (build_dir / "disks.json").write_bytes(content)
    code, stdout, stderr = run_python(
        ["-m", "disklab", "certify", "--from-build", str(build_dir), "--out", "out"], tmp_path
    )
    assert code == EXIT_CONFIG
    assert str(build_dir / "disks.json") in stderr and where in stderr
    assert "Traceback" not in stderr
    assert stdout == ""


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("config.merge_budget", "abc", id="string"),
        pytest.param("config.merge_budget", None, id="null"),
        pytest.param("config.merge_budget", 1, id="one"),
        pytest.param("config.max_arc_classes", "abc", id="max_arc_classes-string"),
        pytest.param("config.max_arc_classes", None, id="max_arc_classes-null"),
        pytest.param("config.max_arc_classes", -1, id="max_arc_classes-negative"),
        pytest.param("config.max_arc_classes", 1.5, id="max_arc_classes-float"),
        pytest.param("config.max_arc_classes", True, id="max_arc_classes-bool"),
        pytest.param("config.arc_bound", True, id="arc_bound-bool"),
        pytest.param("config.bandsum_depth", False, id="bandsum_depth-bool"),
        pytest.param("config.max_band_arcs", 2.0, id="max_band_arcs-float"),
        pytest.param("config.copies", [1, True], id="copies-bool-entry"),
        pytest.param("genus", True, id="genus-bool"),
        pytest.param("tubes", True, id="tubes-bool"),
        pytest.param("genus", 1.0, id="genus-float"),
    ],
)
def test_certify_from_build_rejects_any_other_merge_budget(field, value, tmp_path, capsys):
    # The catalog config keeps merge_budget at its one recorded value, and
    # genus, tubes and every other config field at an int of its range (a
    # bool is not one); any other value is bad input at the field's
    # location, not a crash, a cap or a value echoed into the certificate.
    build_dir = tmp_path / "build"
    run(["build", "--genus", "1", "--tubes", "2", "--out", str(build_dir)], capsys)
    disks_path = build_dir / "disks.json"
    obj = json.loads(disks_path.read_text())
    assert obj["config"]["merge_budget"] == disks.RECORDED_MERGE_BUDGET
    *parents, name = field.split(".")
    target = obj
    for key in parents:
        target = target[key]
    target[name] = value
    disks_path.write_text(json.dumps(obj))
    code, stdout, stderr = run_python(
        ["-m", "disklab", "certify", "--from-build", str(build_dir), "--out", "out"], tmp_path
    )
    assert code == EXIT_CONFIG
    assert f"{disks_path}.{field}: " in stderr
    assert "Traceback" not in stderr
    assert stdout == ""
    assert not (tmp_path / "out" / "certificate.json").exists()


def test_certify_requires_genus_and_tubes_without_from_build(tmp_path, capsys):
    code, _, stderr = run(["certify", "--genus", "1", "--out", str(tmp_path)], capsys)
    assert code == EXIT_CONFIG
    assert "--genus and --tubes" in stderr


def test_certify_rejects_negative_suspension_index(tmp_path, capsys):
    code, _, stderr = run(
        ["certify", "--genus", "1", "--tubes", "-1", "--out", str(tmp_path)], capsys
    )
    assert code == EXIT_CONFIG
    assert "nonnegative" in stderr


def test_certify_respects_simplex_cap(tmp_path, capsys):
    code, _, stderr = run(
        [
            "certify",
            "--genus",
            "1",
            "--tubes",
            "1",
            "--max-simplices",
            "3",
            "--out",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == EXIT_CAP
    assert "max_simplices" in stderr


def test_certify_rejects_negative_simplex_cap(tmp_path, capsys):
    argv = ["certify", "--genus", "1", "--tubes", "1", "--out", str(tmp_path)]
    code, _, stderr = run(argv + ["--max-simplices", "-1"], capsys)
    assert code == EXIT_CONFIG
    assert "--max-simplices" in stderr
    # 0 is a legitimate (if useless) cap: it is enforced, not rejected.
    code, _, stderr = run(argv + ["--max-simplices", "0"], capsys)
    assert code == EXIT_CAP


def test_certify_n0_still_passes(tmp_path, capsys):
    out = str(tmp_path / "c0")
    code, stdout, _ = run(
        ["certify", "--genus", "1", "--tubes", "0", "--out", out], capsys
    )
    assert code == EXIT_OK
    cert = json.loads((tmp_path / "c0" / "certificate.json").read_text())
    assert cert["parameters"]["tubes"] == 1
    assert cert["bounds"]["topological_index_upper"] == 1


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


@pytest.fixture()
def octa_file(tmp_path):
    path = tmp_path / "octa2.json"
    write_text_file(str(path), canonical_json(complex_to_json_obj(octahedral_sphere(2))))
    return str(path)


def test_homology_prints_profile_and_writes_json(octa_file, tmp_path, capsys):
    out = str(tmp_path / "h")
    code, stdout, _ = run(["homology", octa_file, "3", "--out", out], capsys)
    assert code == EXIT_OK
    lines = [line for line in stdout.splitlines() if line.startswith("reduced H_")]
    assert lines == [
        "reduced H_0 = 0",
        "reduced H_1 = Z",
        "reduced H_2 = 0",
        "reduced H_3 = 0",
    ]
    doc = json.loads((tmp_path / "h" / "homology.json").read_text())
    assert doc["kind"] == "homology_profile"
    assert doc["complex"] == {"vertices": 4, "edges": 4}


def test_homology_stdout_only_without_out(octa_file, capsys):
    code, stdout, _ = run(["homology", octa_file, "1"], capsys)
    assert code == EXIT_OK
    assert "wrote" not in stdout


def test_homology_rejects_malformed_json_with_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [')
    code, _, stderr = run(["homology", str(path), "1"], capsys)
    assert code == EXIT_CONFIG
    assert "line 1 column" in stderr


@pytest.mark.parametrize(
    "content, where",
    [(NOT_UTF8, "byte 14"), (b" " * 10000 + b"\xc3(", "byte 10000"), (TOO_DEEP, "nested too deeply")],
    ids=["not-utf8", "not-utf8-far", "too-deep"],
)
def test_homology_rejects_unparseable_bytes(content, where, tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    code, stdout, stderr = run_python(["-m", "disklab", "homology", str(path), "2"], tmp_path)
    assert code == EXIT_CONFIG
    assert f"{path}: " in stderr and where in stderr
    assert "Traceback" not in stderr
    assert stdout == ""


def test_homology_rejects_misordered_edge(tmp_path, capsys):
    path = tmp_path / "asym.json"
    path.write_text('{"vertices": [{"id": "a"}, {"id": "b"}], "edges": [["b", "a"]]}')
    code, _, stderr = run(["homology", str(path), "1"], capsys)
    assert code == EXIT_CONFIG
    assert "edges[0]" in stderr
    assert "smaller id first" in stderr


def test_homology_rejects_negative_dimension(octa_file, capsys):
    code, _, stderr = run(["homology", octa_file, "-1"], capsys)
    assert code == EXIT_CONFIG
    assert "d_max" in stderr


def test_homology_respects_simplex_cap(octa_file, capsys):
    code, _, stderr = run(["homology", octa_file, "2", "--max-simplices", "3"], capsys)
    assert code == EXIT_CAP
    assert "max_simplices" in stderr


@pytest.fixture()
def two_points_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text('{"vertices": [{"id": "a"}, {"id": "b"}], "edges": []}')
    return str(path)


def test_homology_caps_the_dimension_count_before_enumerating(two_points_file, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("cliques enumerated before the dimension cap was checked")

    monkeypatch.setattr(homology, "reduced_homology", no_enumeration)
    start = time.perf_counter()
    code, stdout, stderr = run(["homology", two_points_file, str(10**20)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CAP
    assert stdout == ""
    assert f"d_max {10**20}" in stderr
    assert "max_simplices (1000000)" in stderr
    code, _, stderr = run(["homology", two_points_file, "3", "--max-simplices", "3"], capsys)
    assert code == EXIT_CAP
    assert "d_max 3 asks for 4 dimensions" in stderr and "max_simplices (3)" in stderr


def test_homology_dimension_count_at_the_cap_still_runs(two_points_file, capsys):
    code, stdout, _ = run(["homology", two_points_file, "2", "--max-simplices", "3"], capsys)
    assert code == EXIT_OK
    assert [line for line in stdout.splitlines() if line.startswith("reduced H_")] == [
        "reduced H_0 = Z",
        "reduced H_1 = 0",
        "reduced H_2 = 0",
    ]


def test_homology_rejects_negative_simplex_cap(octa_file, capsys):
    code, _, stderr = run(["homology", octa_file, "2", "--max-simplices", "-1"], capsys)
    assert code == EXIT_CONFIG
    assert "--max-simplices" in stderr


# ---------------------------------------------------------------------------
# unwritable output
# ---------------------------------------------------------------------------


@pytest.fixture()
def regular_file(tmp_path):
    path = tmp_path / "F"
    path.write_text("not a directory")
    return str(path)


def no_work(*args, **kwargs):
    raise AssertionError("the pipeline ran before the output directory was checked")


@pytest.mark.parametrize("sub", [None, "sub"])
def test_build_rejects_an_unusable_out_before_any_work(regular_file, sub, capsys, monkeypatch):
    out = regular_file if sub is None else os.path.join(regular_file, sub)
    monkeypatch.setattr(disks, "build_disk_catalog", no_work)
    code, stdout, stderr = run(["build", "--genus", "1", "--tubes", "1", "--out", out], capsys)
    assert code == EXIT_CONFIG
    assert out in stderr and "Traceback" not in stderr
    assert stdout == ""


def test_certify_rejects_an_unusable_out_before_any_work(regular_file, capsys, monkeypatch):
    out = os.path.join(regular_file, "sub")
    monkeypatch.setattr(retraction, "certify_minimality", no_work)
    code, stdout, stderr = run(["certify", "--genus", "1", "--tubes", "1", "--out", out], capsys)
    assert code == EXIT_CONFIG
    assert out in stderr and "Traceback" not in stderr
    assert stdout == ""


def test_certify_from_build_rejects_an_unusable_out_before_any_work(regular_file, tmp_path, capsys, monkeypatch):
    build_dir = str(tmp_path / "b")
    assert run(["build", "--genus", "1", "--tubes", "2", "--out", build_dir], capsys)[0] == EXIT_OK
    monkeypatch.setattr(retraction, "certify_catalog", no_work)
    monkeypatch.setattr(disks, "catalog_from_json_obj", no_work)
    code, _, stderr = run(["certify", "--from-build", build_dir, "--out", regular_file], capsys)
    assert code == EXIT_CONFIG
    assert regular_file in stderr and "Traceback" not in stderr


def test_homology_rejects_an_unusable_out_before_any_work(octa_file, regular_file, capsys, monkeypatch):
    monkeypatch.setattr(homology, "reduced_homology", no_work)
    code, stdout, stderr = run(["homology", octa_file, "1", "--out", regular_file], capsys)
    assert code == EXIT_CONFIG
    assert regular_file in stderr and "Traceback" not in stderr
    assert stdout == ""


def test_an_unwritable_artifact_exits_2_naming_its_path(tmp_path, capsys):
    out = tmp_path / "c"
    (out / "report.txt").mkdir(parents=True)  # a directory where the report should go
    code, _, stderr = run(["certify", "--genus", "1", "--tubes", "1", "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert str(out / "report.txt") in stderr and "Traceback" not in stderr


def test_unusable_out_exits_2_without_traceback_as_a_subprocess(regular_file):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    out = os.path.join(regular_file, "sub")
    result = subprocess.run(
        [sys.executable, "-m", "disklab", "certify", "--genus", "1", "--tubes", "1", "--out", out],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == EXIT_CONFIG
    assert out in result.stderr and "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def test_module_entry_point_runs_as_subprocess(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "disklab",
            "certify",
            "--genus",
            "1",
            "--tubes",
            "1",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == EXIT_OK
    assert "PASSED" in result.stdout
    assert (tmp_path / "certificate.json").exists()


# Run ARGV through cli.main (or only import cli, without ARGV), then print the
# names of every module loaded.
LIST_MODULES = (
    "import json, sys\n"
    "import disklab.cli\n"
    "code = disklab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
LAYERS = ("disklab.surface", "disklab.disks", "disklab.retraction", "disklab.homology")


def modules_loaded_by(argv, cwd):
    code, stdout, stderr = run_python(["-c", LIST_MODULES, *argv], cwd)
    assert code == EXIT_OK, stderr
    return set(json.loads(stdout.splitlines()[-1]))


def test_importing_cli_loads_no_layer(tmp_path):
    loaded = modules_loaded_by([], tmp_path)
    assert "disklab.cli" in loaded
    assert not loaded & {*LAYERS, "dataclasses"}


def test_homology_loads_only_the_homology_layer(octa_file, tmp_path):
    loaded = modules_loaded_by(["homology", octa_file, "2", "--out", "h"], tmp_path)
    assert (tmp_path / "h" / "homology.json").exists()
    assert "disklab.homology" in loaded
    assert not loaded & {"disklab.surface", "disklab.disks", "disklab.retraction", "dataclasses"}


# The descriptor records are plain classes: ``dataclasses`` would bring
# ``inspect``, ``ast`` and ``dis`` into every build and certify process.
RECORD_MACHINERY = {"dataclasses", "inspect"}


def test_build_loads_no_retraction_or_homology(tmp_path):
    loaded = modules_loaded_by(["build", "--genus", "1", "--tubes", "1", "--out", "b"], tmp_path)
    assert (tmp_path / "b" / "disks.json").exists()
    assert {"disklab.surface", "disklab.disks"} <= loaded
    assert not loaded & {"disklab.retraction", "disklab.homology", *RECORD_MACHINERY}


def test_certify_loads_every_layer(tmp_path):
    loaded = modules_loaded_by(["certify", "--genus", "1", "--tubes", "1", "--out", "c"], tmp_path)
    assert (tmp_path / "c" / "certificate.json").exists()
    assert set(LAYERS) <= loaded
    assert not loaded & RECORD_MACHINERY


def test_certify_from_build_loads_no_record_machinery(tmp_path):
    modules_loaded_by(["build", "--genus", "1", "--tubes", "1", "--out", "b"], tmp_path)
    loaded = modules_loaded_by(["certify", "--from-build", "b", "--out", "c"], tmp_path)
    assert (tmp_path / "c" / "certificate.json").exists()
    assert set(LAYERS) <= loaded
    assert not loaded & RECORD_MACHINERY


def test_failed_certificate_exit_code_is_distinct():
    # No shipped configuration fails, so pin the mapping directly.
    assert (EXIT_OK, EXIT_FAILED, EXIT_CONFIG, EXIT_CAP) == (0, 1, 2, 3)
