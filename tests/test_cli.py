"""Command-line interface: artifacts, exit codes, determinism.

Most tests call ``main(argv)`` in-process so stdout/stderr are captured with
capsys; the subprocess tests run ``python3 -m disklab`` to pin the module
entry point, ``cli.run()``, and its exit through ``os._exit``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

from disklab import disks, homology, retraction
from disklab.cli import EXIT_CAP, EXIT_CONFIG, EXIT_FAILED, EXIT_OK, main
from disklab.flagcomplex import FlagComplex, canonical_json, write_text_file
from oracles import complex_to_json_obj, octahedral_sphere, projective_plane_subdivision

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


DIGEST_GRID = [(1, n) for n in range(9)] + [(2, n) for n in range(7)] + [(3, n) for n in range(6)]
DIGEST_CONFIGS = {
    "k3": {"arc_bound": 3},
    "k4-d1": {"arc_bound": 4, "bandsum_depth": 1},
    "c3": {"arc_bound": 3, "copies": (3,)},
    "k2-v20-b20-p20": {"arc_bound": 2, "max_vd_arcs_per_region": 20, "max_band_arcs": 20, "max_partner_arcs": 20},
}
# The first 12 hex digits of sha256(canonical_json(cert) + render_report(cert))
# at each DIGEST_GRID point, in grid order.  A change that alters the bytes on
# purpose records them again and says so in CHANGES.md.
RECORDED_DIGESTS = {
    "k3": (
        "bffd2bac5d39", "80d1e3c66ebf", "999855db8d21", "a0a22876e1b9", "b6f663de8fdc",
        "f403d6d2e3f2", "0de04f154ed8", "97c2da68b156", "47b1e4b97567",
        "214dd9ab30ff", "bc20287b4403", "93ec0f83e30a", "598e3e0b105a", "a957c52d68a4", "590b528feeb8", "3325ad0bf3fe",
        "e6199243bb7c", "cf9a93b5c74e", "32f51583d6c0", "523e001ed61f", "1ea865b57538", "c377c2d11854",
    ),
    "k4-d1": (
        "f5500138f24a", "5a31cd024666", "113c772d6400", "4bf0f959db5c", "692f3ef5099e",
        "5f74702a7f58", "bcc495afd6dc", "b11d8f86fdd2", "fedfc6895be8",
        "eb68f6fadccc", "c15c8dae277b", "dc8c980a4f01", "85c40411b897", "743ab31be802", "5b400114ec14", "2b9b75529f31",
        "9f55b28e8d31", "4cd4cd9fb649", "d470081e9925", "de86e6b22a59", "64826aa328a9", "71e9c4df02f4",
    ),
    "c3": (
        "c5e4fbe0af1a", "90e14fc61171", "b8dff02772fc", "d3695f9a322b", "8ab143c5ea8c",
        "1d141a2c5eca", "052c25060c65", "9e0212d1e71f", "fcaa668b9121",
        "a0c277e84cb4", "268ee35eee0a", "679556cf4eb3", "afb479dc104b", "ff189180beff", "7cb0942ee7a2", "990360632440",
        "523dad10f212", "510cf7ad5954", "df514d8732ac", "f2cffa6d82e1", "256f7faff2db", "a2867e810d52",
    ),
    "k2-v20-b20-p20": (
        "9a2b4b3d1693", "e58d7f52511c", "bcdbd66b06cf", "553c2e7c9c08", "c777fd7d5adb",
        "e6899cde27d8", "7684a173251d", "dad8fd05d268", "ba32571c8671",
        "2632e55a201c", "ec2c3c872404", "89dd65699f9c", "1182b523931c", "6af1f3c4f196", "a0cb6273abcd", "014a03c5fb91",
        "3e15574735ae", "00fb10c9ca25", "46a1905ae965", "1d1aba83908d", "059cf8aea427", "2390d2a6cf4d",
    ),
}


def test_certificate_bytes_match_the_recorded_digests():
    """certificate.json and report.txt bytes, in-process, at 88 points the goldens do not cover."""
    changed = []
    for name, knobs in DIGEST_CONFIGS.items():
        for (genus, n), expected in zip(DIGEST_GRID, RECORDED_DIGESTS[name], strict=True):
            cert = retraction.certify_minimality(genus, n, disks.CatalogConfig(**knobs))
            text = canonical_json(cert) + retraction.render_report(cert)
            if hashlib.sha256(text.encode()).hexdigest()[:12] != expected:
                changed.append(f"{name} g{genus} n{n}")
    assert changed == []


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


@pytest.mark.parametrize(
    ("flag", "value"),
    [("--arc-bound", "7"), ("--bandsum-depth", "0"), ("--arc-bound", "3"), ("--bandsum-depth", "2")],
)
def test_certify_from_build_rejects_catalog_flags(flag, value, tmp_path, capsys):
    """disks.json fixes the catalog options, so an explicit one is an error, even at its default."""
    build_dir = str(tmp_path / "build")
    run(["build", "--genus", "1", "--tubes", "2", "--out", build_dir], capsys)
    out = tmp_path / "out"
    code, stdout, stderr = run(["certify", "--from-build", build_dir, flag, value, "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert stderr == f"error: {flag} conflicts with --from-build; pass one or the other\n"
    assert stdout == "" and not out.exists()


def test_catalog_flags_keep_their_defaults(tmp_path, capsys):
    """Without the flags, build and certify use arc bound 3 and band-sum depth 2."""
    assert run(["build", "--genus", "1", "--tubes", "2", "--out", str(tmp_path / "b")], capsys)[0] == EXIT_OK
    config = json.loads((tmp_path / "b" / "disks.json").read_text())["config"]
    assert (config["arc_bound"], config["bandsum_depth"]) == (3, 2)
    assert run(["certify", "--genus", "1", "--tubes", "1", "--out", str(tmp_path / "c")], capsys)[0] == EXIT_OK
    cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
    config = cert["parameters"]["catalog_config"]
    assert (config["arc_bound"], config["bandsum_depth"]) == (3, 2)


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


# Each case: the ``disks.json`` object, and the error that must follow its path.
GOOD_CONFIG = {
    "arc_bound": 1, "bandsum_depth": 0, "max_vd_arcs_per_region": 1,
    "max_band_arcs": 0, "max_partner_arcs": 0, "copies": [1],
}
BAD_CATALOGS = {
    "not-an-object": ([], ": disk catalog must be an object"),
    "config-not-an-object": (
        {"kind": "disk_catalog", "genus": 1, "tubes": 1, "config": []},
        ".config: catalog config must be an object",
    ),
    "genus-not-positive": ({"kind": "disk_catalog", "genus": 0}, ".genus: genus must be a positive integer, got 0"),
    "tubes-not-positive": (
        {"kind": "disk_catalog", "genus": 1, "tubes": True}, ".tubes: tubes must be a positive integer, got True"
    ),
    "config-bad-value": (
        {"kind": "disk_catalog", "genus": 1, "tubes": 1, "config": {**GOOD_CONFIG, "arc_bound": -1}},
        ".config.arc_bound: arc_bound must be a nonnegative integer, got -1",
    ),
    "copies-not-a-list": (
        {"kind": "disk_catalog", "genus": 1, "tubes": 1, "config": {**GOOD_CONFIG, "copies": 1}},
        ".config.copies: copies must be a list",
    ),
    "unreadable": (None, ": cannot read file: "),
}


@pytest.mark.parametrize("case", list(BAD_CATALOGS))
def test_certify_from_build_rejects_a_bad_catalog_file_naming_its_location(case, tmp_path, capsys):
    obj, where = BAD_CATALOGS[case]
    build_dir = tmp_path / "build"
    build_dir.mkdir()
    path = build_dir / "disks.json"
    if obj is not None:
        path.write_text(json.dumps(obj))
    code, stdout, stderr = run(["certify", "--from-build", str(build_dir), "--out", str(tmp_path / "out")], capsys)
    assert (code, stdout) == (EXIT_CONFIG, "")
    assert stderr.startswith(f"error: {path}{where}"), stderr


def run_python(args, cwd):
    """``python3 ARGS`` in a fresh interpreter on the sources: (exit code, stdout, stderr).

    A run that takes over a minute fails its test with ``TimeoutExpired``,
    so a hung command cannot stall the suite.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60
    )
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
        pytest.param("config.max_arc_classes", 10**12, id="max_arc_classes-raised"),
        pytest.param("config.arc_bound", True, id="arc_bound-bool"),
        pytest.param("config.bandsum_depth", False, id="bandsum_depth-bool"),
        pytest.param("config.max_band_arcs", 2.0, id="max_band_arcs-float"),
        pytest.param("config.copies", [1, True], id="copies-bool-entry"),
        pytest.param("config.copies", [1, 1], id="copies-repeated"),
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


ARC_CAP = "error: resource cap max_arc_classes (100000) exceeded: "


def test_certify_from_build_keeps_the_arc_class_cap_a_file_raises(tmp_path, capsys):
    # The cap is a constant, not a catalog setting: the catalog is rebuilt
    # under it, so genus 3 at arc bound 9 stops at the cap at once instead of
    # searching arcs under the file's 10**12.
    build_dir = tmp_path / "build"
    run(["build", "--genus", "1", "--tubes", "2", "--out", str(build_dir)], capsys)
    disks_path = build_dir / "disks.json"
    obj = json.loads(disks_path.read_text())
    obj["genus"] = 3
    obj["config"].update(arc_bound=9, max_arc_classes=10**12)
    disks_path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, stdout, stderr = run_python(
        ["-m", "disklab", "certify", "--from-build", str(build_dir), "--out", "out"], tmp_path
    )
    assert time.perf_counter() - start < 5.0
    assert (code, stdout, stderr) == (EXIT_CAP, "", ARC_CAP + "genus 3, length bound 9\n")
    assert not (tmp_path / "out" / "certificate.json").exists()


def test_build_stops_a_huge_arc_bound_at_the_cap_at_once(tmp_path):
    # The candidate count stops adding lengths once it passes the cap, so the
    # bound's size costs nothing.
    start = time.perf_counter()
    code, stdout, stderr = run_python(
        ["-m", "disklab", "build", "--genus", "1", "--tubes", "1", "--arc-bound", "100000", "--out", "b"], tmp_path
    )
    assert time.perf_counter() - start < 5.0
    assert (code, stdout, stderr) == (EXIT_CAP, "", ARC_CAP + "genus 1, length bound 100000\n")
    assert not (tmp_path / "b" / "disks.json").exists()


# ``disklab`` in a child with 1 GiB of address space: at genus 10**9 a table
# of the genus's size would take tens of gigabytes, so a regression fails
# with a MemoryError instead of exhausting the machine.
LIMIT_1GIB = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
UNDER_1GIB = LIMIT_1GIB + "import sys; from disklab.cli import main; sys.exit(main())"


def test_build_at_arc_bound_0_takes_no_time_at_a_huge_genus(tmp_path):
    start = time.perf_counter()
    code, _, stderr = run_python(
        ["-c", UNDER_1GIB, "build", "--genus", "1000000000", "--tubes", "1", "--arc-bound", "0", "--out", "b"],
        tmp_path,
    )
    assert time.perf_counter() - start < 5.0
    assert (code, stderr) == (EXIT_OK, "")
    assert json.loads((tmp_path / "b" / "disks.json").read_text())["genus"] == 10**9


def test_certify_at_arc_bound_0_names_the_missing_vertical_disk_at_a_huge_genus(tmp_path):
    start = time.perf_counter()
    code, stdout, stderr = run_python(
        ["-c", UNDER_1GIB, "certify", "--genus", "1000000000", "--tubes", "0", "--arc-bound", "0", "--out", "c"],
        tmp_path,
    )
    assert time.perf_counter() - start < 5.0
    assert (code, stdout) == (EXIT_CONFIG, "")
    assert stderr.startswith("error: no cataloged vertical disk in region 1 ")
    assert not (tmp_path / "c" / "certificate.json").exists()


def test_descriptors_check_a_huge_tube_index_before_building_a_footprint(tmp_path):
    # A footprint is an int with bit t for tube t, so Meridian(10**10) would
    # ask for 1.25 GB.  Each constructor checks its index against the
    # footprint cap first, and a child under 1 GiB keeps a regression from
    # filling the machine; an index at the cap still builds.
    cap = disks.DEFAULT_MAX_FOOTPRINT_BITS
    script = LIMIT_1GIB + (
        "from disklab.disks import BandSum, Meridian, VerticalDisk\n"
        "from disklab.errors import ResourceCapError\n"
        f"for make in (lambda: Meridian(10**10), lambda: VerticalDisk({cap + 1}, (-2,)),\n"
        f"             lambda: BandSum({cap + 1}, 'self', (-2,), 1)):\n"
        "    try:\n"
        "        make()\n"
        "    except ResourceCapError as exc:\n"
        "        print(exc)\n"
        f"print(Meridian({cap}).footprint.bit_length())\n"
    )
    start = time.perf_counter()
    code, stdout, stderr = run_python(["-c", script], tmp_path)
    assert time.perf_counter() - start < 5.0
    assert (code, stderr) == (EXIT_OK, "")
    assert stdout.splitlines() == [
        f"resource cap max_catalog_footprint ({cap}) exceeded: meridian index 10000000000",
        f"resource cap max_catalog_footprint ({cap}) exceeded: vertical-disk region {cap + 1}",
        f"resource cap max_catalog_footprint ({cap}) exceeded: band-sum base {cap + 1}",
        str(cap + 1),
    ]


def test_build_stops_a_huge_tube_count_at_the_catalog_cap(tmp_path, capsys):
    # The catalog's size comes in closed form, so no disk is built.
    start = time.perf_counter()
    code, stdout, stderr = run(["build", "--genus", "1", "--tubes", "100000", "--out", str(tmp_path / "b")], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (EXIT_CAP, "")
    assert stderr == (
        f"error: resource cap max_catalog_disks ({disks.DEFAULT_MAX_CATALOG_DISKS}) exceeded: "
        "genus 1, 100000 tubes, arc bound 3: 50001300000 disks\n"
    )
    assert not (tmp_path / "b" / "disks.json").exists()


def test_build_stops_a_huge_meridian_catalog_at_the_footprint_cap(tmp_path):
    # At arc bound 0 the catalog is the meridians alone, so a million tubes
    # pass the disk cap, but their footprints, ints of up to a million bits
    # each, would take tens of gigabytes.  The cap fires before any disk is
    # built, in a child under 1 GiB, so a regression cannot fill the machine.
    start = time.perf_counter()
    code, stdout, stderr = run_python(
        ["-c", UNDER_1GIB, "build", "--genus", "1", "--tubes", "1000000", "--arc-bound", "0", "--out", "b"], tmp_path
    )
    assert time.perf_counter() - start < 5.0
    assert (code, stdout) == (EXIT_CAP, "")
    assert stderr == (
        f"error: resource cap max_catalog_footprint ({disks.DEFAULT_MAX_FOOTPRINT_BITS}) exceeded: "
        "genus 1, 1000000 tubes, arc bound 0: 1000001000000 footprint bits\n"
    )
    assert not (tmp_path / "b" / "disks.json").exists()


def test_certify_from_build_rejects_an_extra_arc_class_region(tmp_path, capsys):
    build_dir = tmp_path / "build"
    run(["build", "--genus", "1", "--tubes", "2", "--out", str(build_dir)], capsys)
    disks_path = build_dir / "disks.json"
    obj = json.loads(disks_path.read_text())
    obj["arc_classes"]["7"] = [[9, 9]]
    disks_path.write_text(json.dumps(obj))
    code, stdout, stderr = run(["certify", "--from-build", str(build_dir), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_CONFIG
    assert f"{disks_path}.arc_classes.7: " in stderr
    assert not (tmp_path / "out" / "certificate.json").exists()


def test_certify_from_build_rejects_unsorted_copies(tmp_path, capsys):
    # build writes copies sorted, so a reordered list is not what build
    # writes for any config, though it names the same catalog.
    build_dir = tmp_path / "build"
    run(["build", "--genus", "1", "--tubes", "2", "--out", str(build_dir)], capsys)
    disks_path = build_dir / "disks.json"
    obj = json.loads(disks_path.read_text())
    assert obj["config"]["copies"] == [1, 2]
    obj["config"]["copies"] = [2, 1]
    disks_path.write_text(json.dumps(obj))
    code, stdout, stderr = run(["certify", "--from-build", str(build_dir), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_CONFIG
    assert stderr == f"error: {disks_path}.config.copies[0]: expected 1, got 2\n"
    assert not (tmp_path / "out" / "certificate.json").exists()


def test_certify_from_build_rejects_a_field_that_build_never_writes(tmp_path, capsys):
    # disks.json must equal what build writes: an extra field in a disk
    # entry is bad input at its own path, though the descriptor is intact.
    build_dir = tmp_path / "build"
    run(["build", "--genus", "1", "--tubes", "2", "--out", str(build_dir)], capsys)
    disks_path = build_dir / "disks.json"
    obj = json.loads(disks_path.read_text())
    obj["disks"][3]["extra"] = 1
    disks_path.write_text(json.dumps(obj))
    code, stdout, stderr = run(["certify", "--from-build", str(build_dir), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_CONFIG
    assert stderr == f"error: {disks_path}.disks[3].extra: unexpected\n"
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


def test_certify_at_64_tubes_stops_at_the_cap_before_the_rows_and_images(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify did work before it checked the simplex cap")

    monkeypatch.setattr(retraction, "disjointness_rows", refuse)
    monkeypatch.setattr(retraction, "RetractionEngine", refuse)
    code, stdout, stderr = run(["certify", "--genus", "1", "--tubes", "64", "--out", str(tmp_path)], capsys)
    assert code == EXIT_CAP and stdout == ""
    assert stderr == (
        "error: resource cap max_simplices (1000000) exceeded: more than 1000000 simplices in dimension 3\n"
    )


CAP_AT_200_TUBES = "error: resource cap max_simplices (1000000) exceeded: more than 1000000 simplices in dimension 2\n"


def refuse_to_build(*args, **kwargs):
    raise AssertionError("certify built a catalog before it checked the simplex cap")


def test_certify_checks_the_simplex_cap_before_it_builds_the_catalog(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(retraction, "build_disk_catalog", refuse_to_build)
    code, stdout, stderr = run(["certify", "--genus", "1", "--tubes", "200", "--out", str(tmp_path)], capsys)
    assert code == EXIT_CAP and stdout == ""
    assert stderr == CAP_AT_200_TUBES


def test_certify_from_build_checks_the_simplex_cap_before_it_rebuilds(tmp_path, capsys, monkeypatch):
    # The cap depends on the file's tube count alone, so it is checked before
    # any other field: here a bad kind comes second.
    build_dir = tmp_path / "build"
    assert run(["build", "--genus", "1", "--tubes", "2", "--out", str(build_dir)], capsys)[0] == EXIT_OK
    disks_path = build_dir / "disks.json"
    obj = json.loads(disks_path.read_text())
    obj["tubes"] = 200
    disks_path.write_text(json.dumps(obj))
    monkeypatch.setattr(disks, "build_disk_catalog", refuse_to_build)
    out = tmp_path / "out"
    code, stdout, stderr = run(["certify", "--from-build", str(build_dir), "--out", str(out)], capsys)
    assert code == EXIT_CAP and stdout == ""
    assert stderr == CAP_AT_200_TUBES
    obj["kind"] = "x"
    disks_path.write_text(json.dumps(obj))
    assert run(["certify", "--from-build", str(build_dir), "--out", str(out)], capsys)[:3] == (
        EXIT_CAP, "", CAP_AT_200_TUBES
    )
    assert not (out / "certificate.json").exists()


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
        "reduced H_k = 0 for k = 3..3, past the first empty dimension",
    ]
    doc = json.loads((tmp_path / "h" / "homology.json").read_text())
    assert doc["kind"] == "homology_profile"
    assert doc["complex"] == {"vertices": 4, "edges": 4}


def test_homology_reports_torsion_of_the_subdivided_projective_plane(tmp_path, capsys):
    path = tmp_path / "rp2.json"
    write_text_file(str(path), canonical_json(complex_to_json_obj(projective_plane_subdivision())))
    code, stdout, _ = run(["homology", str(path), "2", "--out", str(tmp_path / "h")], capsys)
    assert code == EXIT_OK
    lines = [line for line in stdout.splitlines() if line.startswith("reduced H_")]
    assert lines == ["reduced H_0 = 0", "reduced H_1 = Z/2", "reduced H_2 = 0"]
    doc = json.loads((tmp_path / "h" / "homology.json").read_text())
    assert doc["complex"] == {"vertices": 31, "edges": 90}
    assert [entry["torsion"] for entry in doc["profile"]] == [[], [2], []]


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


def test_homology_rejects_a_repeated_edge(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"vertices": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b"], ["a", "b"]]}')
    code, _, stderr = run(["homology", str(path), "1", "--out", str(tmp_path / "h")], capsys)
    assert code == EXIT_CONFIG
    assert f"{path}: edges[1]" in stderr
    assert "duplicate edge" in stderr
    assert not (tmp_path / "h" / "homology.json").exists()


# Each case: the file's text, and the error that must follow its path.
BAD_COMPLEXES = {
    "not-an-object": ("[]", ": expected a JSON object"),
    "no-vertices": ('{"edges": []}', ": missing key 'vertices'"),
    "no-edges": ('{"vertices": []}', ": missing key 'edges'"),
    "vertices-not-a-list": ('{"vertices": {}, "edges": []}', ": vertices: expected a list"),
    "edges-not-a-list": ('{"vertices": [], "edges": {}}', ": edges: expected a list"),
    "vertex-without-id": (
        '{"vertices": [{"label": "a"}], "edges": []}', ": vertices[0]: expected an object with an 'id' key"
    ),
    "edge-not-a-pair": ('{"vertices": [{"id": "a"}], "edges": [["a"]]}', ": edges[0]: expected a pair"),
    "edge-not-strings": ('{"vertices": [{"id": "a"}], "edges": [["a", 1]]}', ": edges[0]: expected a pair"),
    "unreadable": (None, ": cannot read file: "),
}


@pytest.mark.parametrize("case", list(BAD_COMPLEXES))
def test_homology_rejects_a_bad_complex_file_naming_its_location(case, tmp_path, capsys):
    text, where = BAD_COMPLEXES[case]
    path = tmp_path / "complex.json"
    if text is not None:
        path.write_text(text)
    code, stdout, stderr = run(["homology", str(path), "2"], capsys)
    assert (code, stdout) == (EXIT_CONFIG, "")
    assert stderr.startswith(f"error: {path}{where}"), stderr


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


def test_homology_answers_any_d_max_past_the_first_empty_dimension(two_points_file, capsys):
    # --max-simplices caps the cliques of each dimension, not d_max: the
    # profile stops at the complex's first empty dimension, so d_max costs nothing.
    for args, d_max in (([str(10**20)], 10**20), (["3", "--max-simplices", "3"], 3)):
        start = time.perf_counter()
        code, stdout, stderr = run(["homology", two_points_file, *args], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, stderr) == (EXIT_OK, "")
        assert stdout.splitlines() == [
            "reduced H_0 = Z",
            "reduced H_1 = 0",
            f"reduced H_k = 0 for k = 2..{d_max}, past the first empty dimension",
        ]


def test_homology_dimension_count_at_the_cap_still_runs(two_points_file, capsys):
    code, stdout, _ = run(["homology", two_points_file, "2", "--max-simplices", "3"], capsys)
    assert code == EXIT_OK
    assert [line for line in stdout.splitlines() if line.startswith("reduced H_")] == [
        "reduced H_0 = Z",
        "reduced H_1 = 0",
        "reduced H_k = 0 for k = 2..2, past the first empty dimension",
    ]


# A child under 256 MiB of address space: the profile stops at the complex's
# first empty dimension, so a d_max of 999999 on one edge prints, builds and
# writes three dimensions, where a profile padded to d_max took about 12 s
# and 1 GB.
LIMIT_256MIB = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"


def test_homology_work_is_bounded_by_the_complex_not_by_d_max(tmp_path):
    (tmp_path / "edge.json").write_text('{"vertices": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b"]]}')
    script = LIMIT_256MIB + "import sys; from disklab.cli import main; sys.exit(main())"
    start = time.perf_counter()
    code, stdout, stderr = run_python(["-c", script, "homology", "edge.json", "999999", "--out", "h"], tmp_path)
    assert time.perf_counter() - start < 2.0
    assert (code, stderr) == (EXIT_OK, "")
    assert stdout.splitlines() == [
        "reduced H_0 = 0",
        "reduced H_1 = 0",
        "reduced H_2 = 0",
        "reduced H_k = 0 for k = 3..999999, past the first empty dimension",
        f"wrote {os.path.join('h', 'homology.json')}",
    ]
    doc = json.loads((tmp_path / "h" / "homology.json").read_text())
    assert doc["d_max"] == 999999 and [e["dimension"] for e in doc["profile"]] == [0, 1, 2]


def test_homology_and_certify_call_the_methods_the_tracer_replaces(octa_file, tmp_path, capsys, monkeypatch):
    """``perfbench/tracer.py`` replaces ``FlagComplex.neighbors`` and
    ``RetractionEngine.image`` on their classes; a traced run needs both, and
    each job kind must reach its own."""
    calls = Counter()

    def count(cls, name):
        assert name in vars(cls), (cls.__name__, name)
        method = vars(cls)[name]

        def counting(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    count(FlagComplex, "neighbors")
    count(retraction.RetractionEngine, "image")
    assert run(["homology", octa_file, "2"], capsys)[0] == EXIT_OK
    assert calls["neighbors"] >= 1
    calls.clear()
    assert run(["certify", "--genus", "1", "--tubes", "1", "--out", str(tmp_path / "c")], capsys)[0] == EXIT_OK
    assert calls["image"] >= 1


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


# ``python3 -m disklab ARGV`` with both standard streams block-buffered:
# stdout is a pipe and the child's environment drops PYTHONUNBUFFERED, and
# stderr, which Python line-buffers by default, is rewrapped without line
# buffering.  So a line reaches the parent only if cli.run() flushes its
# stream before os._exit.
BLOCK_BUFFERED_MAIN = (
    "import io, runpy, sys\n"
    "sys.stderr = io.TextIOWrapper(open(2, 'wb', closefd=False), encoding='utf-8')\n"
    "runpy.run_module('disklab', run_name='__main__', alter_sys=True)\n"
)


def run_block_buffered(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    result = subprocess.run(
        [sys.executable, "-c", BLOCK_BUFFERED_MAIN, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=60
    )
    return result.returncode, result.stdout, result.stderr


def test_certify_prints_every_line_and_writes_both_files_through_the_fast_exit(tmp_path):
    code, stdout, stderr = run_block_buffered(["certify", "--genus", "1", "--tubes", "1", "--out", "c"], tmp_path)
    assert (code, stderr) == (EXIT_OK, "")
    lines = stdout.splitlines()
    assert lines[:2] == [f"wrote {os.path.join('c', name)}" for name in ("certificate.json", "report.txt")]
    assert len(lines) == 3 and lines[2].startswith("PASSED: ")
    assert json.loads((tmp_path / "c" / "certificate.json").read_text())["passed"]
    assert (tmp_path / "c" / "report.txt").read_text()


FAST_EXIT_CASES = {
    "bad-genus": (["certify", "--genus", "0", "--tubes", "1", "--out", "c"], EXIT_CONFIG),
    # certificate.json is written and announced on stdout before report.txt fails.
    "unwritable-report": (["certify", "--genus", "1", "--tubes", "1", "--out", "r"], EXIT_CONFIG),
    "arc-cap": (["build", "--genus", "1", "--tubes", "1", "--arc-bound", "100000", "--out", "b"], EXIT_CAP),
    "homology": (["homology", "octa2.json", "3"], EXIT_OK),
}


@pytest.mark.parametrize("case", FAST_EXIT_CASES)
def test_every_exit_code_and_line_pass_through_the_fast_exit(case, octa_file, tmp_path, capsys, monkeypatch):
    argv, expected = FAST_EXIT_CASES[case]
    (tmp_path / "r" / "report.txt").mkdir(parents=True)  # a directory where the report should go
    child = run_block_buffered(argv, tmp_path)
    monkeypatch.chdir(tmp_path)
    in_process = run(argv, capsys)
    assert in_process[0] == expected and (in_process[1] or in_process[2])
    assert child == in_process


def test_a_closed_stdout_still_exits_0(tmp_path):
    # Python sets sys.stdout to None when descriptor 1 is closed at start;
    # print() then writes nothing, and run() has nothing to flush.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["-m", "disklab", "certify", "--genus", "1", "--tubes", "1", "--out", "c"]
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert (tmp_path / "c" / "report.txt").exists()


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


def modules_loaded_by(argv, cwd, *flags):
    code, stdout, stderr = run_python([*flags, "-c", LIST_MODULES, *argv], cwd)
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


def test_build_and_certify_load_no_typing(tmp_path):
    # Under -S no site hook has loaded ``typing`` already, so the list shows
    # what disklab and the modules it imports load.
    runs = (
        ["build", "--genus", "1", "--tubes", "3", "--out", "b"],
        ["certify", "--genus", "1", "--tubes", "2", "--out", "c"],
        ["certify", "--from-build", "b", "--out", "d"],
    )
    for argv in runs:
        loaded = modules_loaded_by(argv, tmp_path, "-S")
        assert "disklab.disks" in loaded and "typing" not in loaded, argv
    assert (tmp_path / "d" / "certificate.json").exists()


def test_failed_certificate_exit_code_is_distinct():
    # No shipped configuration fails, so pin the mapping directly.
    assert (EXIT_OK, EXIT_FAILED, EXIT_CONFIG, EXIT_CAP) == (0, 1, 2, 3)


def test_a_claim_violation_fails_the_certificate_end_to_end(tmp_path, capsys, monkeypatch):
    """Exit 1: a disk imaged to the antipode of a disk it is certified disjoint from.

    At g1 n2 the vertical disk V(1;-1) lies off the sphere and is certified
    disjoint from D0 = V(1;-2); both map to D0.  Flipping V(1;-1)'s image to
    E0 makes that pair antipodal, so the claim tally records a violation and
    the steps after it, the retraction check and the homology section, do not run.
    """
    image = retraction.RetractionEngine.image
    monkeypatch.setattr(retraction.RetractionEngine, "image", lambda self, d: image(self, d) ^ (d.key == "V(1;-1)"))
    detail = "disjoint disks V(1;-2) and V(1;-1) map to antipodal vertices D0 and E0 (case 6)"
    cert = retraction.certify_minimality(1, 2, disks.CatalogConfig(arc_bound=3, bandsum_depth=2))
    assert cert["passed"] is False
    assert cert["first_violation"] == {"kind": "claim", "detail": detail}
    assert not cert["claims"]["passed"] and cert["claims"]["violations"][0]["disks"] == ["V(1;-2)", "V(1;-1)"]
    assert cert["homology"] is None
    assert cert["retraction"]["check"] == {"ok": False, "report": []}
    report = retraction.render_report(cert)
    assert f"First violation (claim): {detail}" in report.splitlines()

    code, stdout, stderr = run(["certify", "--genus", "1", "--tubes", "2", "--out", str(tmp_path)], capsys)
    assert (code, stderr) == (EXIT_FAILED, "")
    assert stdout.splitlines()[-1] == f"FAILED: {detail}"
    assert (tmp_path / "certificate.json").read_text() == canonical_json(cert)
    assert (tmp_path / "report.txt").read_text() == report
