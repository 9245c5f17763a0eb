"""CLI behavior: exit codes, JSON shapes, manifest handling."""

import contextlib
import io
import json
import re
import sys

import numpy as np
import pytest

import oortlab.analysis as analysis
import oortlab.classify as classify
import oortlab.cli as cli
import oortlab.perm as perm
from oortlab.classify import OortVerdict
from oortlab.cli import (
    EXIT_CAP,
    EXIT_DISAGREE,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VIOLATION,
    bundled_manifest_text,
    main,
    parse_manifest,
)
from oortlab.construct import build_group


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- construct ----------------------------------------------------------


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "S:4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["order"] == 24 and doc["degree"] == 4
    assert doc["solvable"] is True and doc["nilpotent"] is False
    assert doc["generators"]


def test_construct_closure_respects_enum_cap(capsys, monkeypatch):
    # the order of S:6 comes from its chain; the derived series closes A6
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "100")
    code, _, err = run(capsys, "construct", "S:6")
    assert code == EXIT_CAP
    assert "ENUM_CAP" in err


def test_construct_bad_spec(capsys):
    code, _, err = run(capsys, "construct", "X:9")
    assert code == EXIT_PARSE
    assert "error" in err


# -- the parser -----------------------------------------------------------


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (("check", "C:4", "--p", "2"), ("construct", "S:3"), ("audit", "S:4", "--p", "3")):
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
    assert len(built) == 1


def test_reused_parser_leaks_no_state(capsys):
    code, out, _ = run(capsys, "check", "S:4", "--p", "3", "--table")
    assert code == EXIT_OK and out.startswith("S:4  order=24")
    with pytest.raises(SystemExit):
        main(["check", "S:4", "--route", "crit"])  # no --p
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "S:4", "--p", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["route"] == "both" and doc["is_o_group"] is True


def _parsed(parse, argv):
    """(exit code, stdout, stderr) of parsing argv: the SystemExit code,
    or None when parsing succeeded."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        [],
        ["chek"],
        ["check", "-h"],
        ["check", "S:4"],
        ["check", "S:4", "--p", "3", "--bogus"],
        ["validate", "-", "--jobs", "x"],
    ],
    ids=["help", "empty", "unknown-command", "check-help", "no-p", "unknown-option", "bad-jobs"],
)
def test_main_parses_as_the_whole_parser_does(argv):
    """main hands a named subcommand to its own parser: help, usage,
    errors and exit codes are those of the top-level parser."""
    whole = _parsed(cli.build_parser().parse_args, argv)
    assert whole[0] is not None
    assert _parsed(main, argv) == whole


# -- check --------------------------------------------------------------


def test_check_positive(capsys):
    code, out, _ = run(capsys, "check", "D:18", "--p", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["is_o_group"] is True
    assert doc["route"] == "both"
    assert doc["witnesses"] == []
    assert doc["timing_ms"] >= 0


def test_check_negative_with_witnesses(capsys):
    code, out, _ = run(capsys, "check", "Q:8", "--p", "2")
    assert code == EXIT_NEGATIVE
    doc = json.loads(out)
    assert doc["is_o_group"] is False
    assert doc["witnesses"]


def test_check_single_routes(capsys):
    for route in ("def", "crit"):
        code, out, _ = run(capsys, "check", "C:15", "--p", "3", "--route", route)
        assert code == EXIT_OK
        assert json.loads(out)["route"] == route


def test_check_table(capsys):
    code, out, _ = run(capsys, "check", "S:5", "--p", "5", "--table")
    assert code == EXIT_NEGATIVE
    assert "NOT an O-group" in out
    assert "witness" in out


def test_check_nonprime_p(capsys):
    code, _, err = run(capsys, "check", "C:6", "--p", "6")
    assert code == EXIT_PARSE
    assert "not prime" in err


def test_check_forced_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "is_o_group_by_criterion",
        lambda G, p: OortVerdict(False, "CriterionOdd", "forced", ()),
    )
    code, out, _ = run(capsys, "check", "C:15", "--p", "3")
    assert code == EXIT_DISAGREE
    assert json.loads(out)["disagreement"] == {"definition": True, "criterion": False}


def test_check_cap_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "10")
    code, _, err = run(capsys, "check", "S:4", "--p", "2")
    assert code == EXIT_CAP
    assert "error" in err


def test_check_enum_cap_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "lots")
    code, _, err = run(capsys, "check", "S:4", "--p", "2")
    assert code == EXIT_PARSE
    assert "OORTLAB_ENUM_CAP" in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (("construct", "S:4"), "error: normal closure exceeds ENUM_CAP 10\n"),
        (("audit", "S:4", "--p", "3"), "error: group order 24 exceeds ENUM_CAP 10\n"),
        (("check", "S:4", "--p", "3", "--route", "crit"), "error: group order 24 exceeds ENUM_CAP 10\n"),
    ],
    ids=["construct", "audit", "check-crit"],
)
def test_a_build_past_the_cap_checks_its_order_by_the_chain(capsys, monkeypatch, argv, err):
    """Under a cap below |G| the build's order check leaves the listing to
    the chain, and the request fails where it first enumerates G."""
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "10")
    assert run(capsys, *argv)[::2] == (EXIT_CAP, err)


def test_a_build_at_the_cap_is_listed(capsys, monkeypatch):
    """A group whose order equals the cap is listed and answers as it does
    without a cap."""
    code, out, _ = run(capsys, "check", "D:10", "--p", "5")
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "10")
    G = build_group("D:10")
    assert G._element_list is not None and G._chain is None
    capped = run(capsys, "check", "D:10", "--p", "5")
    timing = re.compile(r'"timing_ms": [-0-9.e]+')
    assert (capped[0], timing.sub("", capped[1]), capped[2]) == (code, timing.sub("", out), "")


# -- audit --------------------------------------------------------------


def test_audit_even_report(capsys):
    code, out, _ = run(capsys, "audit", "DELPERM:5:S4:sign", "--p", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["case"] == "2b:G=R.S4"
    assert doc["violations"] == []
    assert doc["chief_factors"][0]["order4_traces"] == [1]
    statuses = {c["claim"]: c["status"] for c in doc["claims"]}
    assert statuses["restrictions-trivial-center-1"] == "pass"


def test_audit_cyclic_sylow_mini_report(capsys):
    code, out, _ = run(capsys, "audit", "D:18", "--p", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["case"] == "G=RP (cyclic Sylow)"
    assert doc["r_order"] == 9 and doc["violations"] == []
    assert doc["ncq"] == 1


def test_audit_odd_report(capsys):
    code, out, _ = run(capsys, "audit", "S:4", "--p", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["case"] == "G=RD"


def test_audit_precondition_failure(capsys):
    code, _, err = run(capsys, "audit", "A:6", "--p", "3")
    assert code == EXIT_NEGATIVE
    assert "error" in err


def test_audit_violation_exit(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "theorem_audit", lambda ctx: [("two-cases-odd", "fail")]
    )
    code, out, _ = run(capsys, "audit", "C:15", "--p", "3")
    assert code == EXIT_VIOLATION


@pytest.mark.parametrize(
    "spec,p,sylows",
    [
        ("S:4", 3, 1),  # odd, basic1 applies and reads the context's Sylow
        ("A:5", 2, 1),  # even
        ("D:18", 2, 1),  # cyclic Sylow
    ],
)
def test_audit_computes_core_and_sylow_once(capsys, monkeypatch, spec, p, sylows):
    """The report and the claim audit of one request share one context."""
    calls = []

    def counting(name, fn):
        def wrapper(G, q):
            calls.append((name, G.order(), q))
            return fn(G, q)

        return wrapper

    for name in ("o_p_prime", "sylow"):
        monkeypatch.setattr(classify, name, counting(name, getattr(classify, name)))
    code, _, _ = run(capsys, "audit", spec, "--p", str(p))
    assert code == EXIT_OK
    order = build_group(spec).order()
    assert calls.count(("o_p_prime", order, p)) == 1
    assert calls.count(("sylow", order, p)) == sylows


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "S:4", "--p", "3"],
        ["audit", "D:18", "--p", "3"],
        ["audit", "A:5", "--p", "2"],
        ["audit", "INV:3:8:cyclic", "--p", "2"],
        ["check", "S:4", "--p", "3", "--route", "crit"],
    ],
    ids=["audit-S4-3", "audit-D18-3", "audit-A5-2", "audit-INV3_8cyclic-2", "crit-S4-3"],
)
def test_one_normalizer_and_centralizer_per_subgroup(capsys, monkeypatch, argv):
    """The criterion, the report and the claim audit of one request share
    each N_G(H) and C_G(H) through their context's memo (Context.local),
    and nothing else computes one, so each is computed at most once."""
    keys = {"normalizer": [], "centralizer": []}

    def counting(name, fn):
        def wrapper(G, H):
            keys[name].append((G.order(), H.element_set()))
            return fn(G, H)

        return wrapper

    for name in keys:
        monkeypatch.setattr(classify, name, counting(name, getattr(classify, name)))
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert keys["centralizer"]
    assert len(set(keys["centralizer"])) == len(keys["centralizer"])
    assert len(set(keys["normalizer"])) == len(keys["normalizer"])


@pytest.mark.parametrize(
    "spec,p,growths",
    [("S:4", 3, 1), ("D:18", 3, 1), ("A:5", 2, 1), ("PSL2:13", 7, 1), ("PGL2:9", 3, 1), ("D:16", 2, 0)],
)
def test_both_routes_share_the_sylow_and_each_normalizer(capsys, monkeypatch, spec, p, growths):
    """Under check --route both the definition route and the criterion
    read the Sylow subgroup kept on G: it is grown once per (G, p), not at
    all when G is a p-group.  Normalizers are not shared: each route
    computes each of its own once (the stream per class rep, the criterion
    through its context), so calls are keyed by their caller."""
    grown, normalized = [], []

    def growing(fn):
        def wrapper(G, q, target):
            grown.append((id(G), q))
            return fn(G, q, target)

        return wrapper

    def normalizing(G, H):
        normalized.append((sys._getframe(1).f_code.co_name, id(G), np.sort(G.store().keys_of(H)).tobytes()))
        return analysis.normalizer(G, H)

    for name in ("_sylow_by_ids", "_sylow_by_perms"):
        monkeypatch.setattr(analysis, name, growing(getattr(analysis, name)))
    monkeypatch.setattr(classify, "normalizer", normalizing)
    code, _, _ = run(capsys, "check", spec, "--p", str(p))
    assert code in (EXIT_OK, EXIT_NEGATIVE)
    assert len(grown) == growths
    assert normalized and len(set(normalized)) == len(normalized)


def _outputs(argvs) -> list:
    """Each request's exit code and stdout, with timing_ms dropped."""
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out.append((code, re.sub(r'"timing_ms": [-0-9.e]+', "", buf.getvalue())))
    return out


@pytest.fixture(scope="module")
def forced_path_requests():
    """Every other check and audit on the catalogue's groups of order at
    most 3000 (226 requests), with their default outputs."""
    argvs = []
    for spec, primes, expects in parse_manifest(bundled_manifest_text()):
        if build_group(spec).order() <= 3000:
            for p, expect in zip(primes, expects):
                argvs.append(["check", spec, "--p", str(p)])
                if expect:
                    argvs.append(["audit", spec, "--p", str(p)])
    argvs = argvs[::2]
    return argvs, _outputs(argvs)


@pytest.mark.parametrize("keyed_min_order, unused", [(1, "_sylow_by_perms"), (10**6, "_sylow_by_ids")])
def test_forcing_the_size_rule_changes_no_output(monkeypatch, forced_path_requests, keyed_min_order, unused):
    """perm.KEYED_MIN_ORDER forced to 1 (store paths at every order) and to
    10**6 (Perm-list paths) leaves every output as it is; analysis reads
    the rule through perm, so the one patch also forces its Sylow path."""

    def unexpected(*args):
        raise AssertionError(f"{unused} ran with KEYED_MIN_ORDER = {keyed_min_order}")

    argvs, default = forced_path_requests
    monkeypatch.setattr(perm, "KEYED_MIN_ORDER", keyed_min_order)
    monkeypatch.setattr(analysis, unused, unexpected)
    assert _outputs(argvs) == default


@pytest.mark.parametrize("rows_min_degree, unused", [(1, perm._PermChain), (10**6, perm._RowChain)])
def test_forcing_the_kernel_rule_changes_no_output(monkeypatch, forced_path_requests, rows_min_degree, unused):
    """perm.ROWS_MIN_DEGREE forced to 1 (every chain on image rows) and to
    10**6 (every chain on Perm tuples) leaves every output as it is."""
    built = []
    init = unused.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    argvs, default = forced_path_requests
    monkeypatch.setattr(perm, "ROWS_MIN_DEGREE", rows_min_degree)
    monkeypatch.setattr(unused, "__init__", counting)
    assert _outputs(argvs) == default
    assert not built


@pytest.mark.parametrize(
    "spec,p,calls",
    [("S:4", 3, 2), ("A:5", 5, 2), ("D:18", 3, 2), ("A:5", 2, 1), ("D:16", 2, 2)],
)
def test_audit_shapes_the_sylow_once(capsys, monkeypatch, spec, p, calls):
    """The criterion, two-cases-odd and the claim audit read one shape of
    P.  On D:16 (G = P) the nontrivial-center check still shapes G."""
    shape_of, keys = classify.shape_of, []

    def counting(H):
        keys.append(H.element_set())
        return shape_of(H)

    monkeypatch.setattr(classify, "shape_of", counting)
    code, _, _ = run(capsys, "audit", spec, "--p", str(p))
    assert code == EXIT_OK
    assert len(keys) == calls
    if spec != "D:16":
        assert len(set(keys)) == len(keys)


# -- manifest parsing ---------------------------------------------------


def test_parse_manifest_good():
    text = """
    # comment
    C:12 ; p=2,3 ; expect=T,T

    D:18 ; p=3  # trailing comment
    """
    entries = parse_manifest(text)
    assert entries == [("C:12", [2, 3], [True, True]), ("D:18", [3], None)]


@pytest.mark.parametrize(
    "line",
    [
        "C:12",
        "C:12 ; q=2",
        "C:12 ; p=4",
        "C:12 ; p=",
        "C:12 ; p=2 ; expect=T,F",
        "C:12 ; p=2 ; expect=yes",
        "C:12 ; p=2 ; wrong=T",
        "C:12 ; p=2,x",
    ],
)
def test_parse_manifest_bad(line):
    with pytest.raises(ValueError, match="manifest line 1"):
        parse_manifest(line)


def test_bundled_manifest_parses():
    entries = parse_manifest(bundled_manifest_text())
    assert len(entries) >= 80
    assert all(expect is not None for _, _, expect in entries)


# -- validate -----------------------------------------------------------


def test_validate_small_manifest(capsys, tmp_path):
    mf = tmp_path / "m.txt"
    mf.write_text("C:12 ; p=2,3 ; expect=T,T\nQ:8 ; p=2 ; expect=F\n")
    out_path = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "validate", str(mf), "--out", str(out_path))
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["entries"] == 3
    assert summary["positive"] == 2 and summary["negative"] == 1
    assert summary["disagreements"] == [] and summary["expect_mismatches"] == []
    docs = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert [d["spec"] for d in docs] == ["C:12", "C:12", "Q:8"]


def test_validate_empty_manifest(capsys, tmp_path):
    mf = tmp_path / "empty.txt"
    mf.write_text("# nothing here\n")
    code, out, _ = run(capsys, "validate", str(mf))
    assert code == EXIT_OK
    assert json.loads(out)["entries"] == 0


def test_validate_expect_mismatch(capsys, tmp_path):
    mf = tmp_path / "m.txt"
    mf.write_text("Q:8 ; p=2 ; expect=T\n")
    code, out, _ = run(capsys, "validate", str(mf))
    assert code == EXIT_NEGATIVE
    # the summary is the pretty-printed block after the one-line docs
    summary = json.loads(out[out.index("{\n") :])
    assert summary["expect_mismatches"]


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.txt"))
    assert code == EXIT_PARSE
    assert "error" in err


def test_validate_bad_manifest(capsys, tmp_path):
    mf = tmp_path / "bad.txt"
    mf.write_text("C:12 ; q=2\n")
    code, _, err = run(capsys, "validate", str(mf))
    assert code == EXIT_PARSE


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_validate_rejects_jobs_below_one(capsys, tmp_path, jobs):
    mf = tmp_path / "m.txt"
    mf.write_text("C:12 ; p=2 ; expect=T\n")
    code, out, err = run(capsys, "validate", str(mf), "--jobs", jobs)
    assert code == EXIT_PARSE
    assert "--jobs" in err and out == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_validate_keeps_every_entry_past_the_cap(capsys, monkeypatch, tmp_path, jobs):
    """An entry past the cap becomes an error record; the others keep
    their verdicts, --out gets all three lines, and the run exits 4."""
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "1000")
    mf = tmp_path / "m.txt"
    mf.write_text("C:4 ; p=2\nA:7 ; p=3\nS:4 ; p=3\n")
    out_path = tmp_path / "o.jsonl"
    code, out, _ = run(capsys, "validate", str(mf), "--out", str(out_path), "--jobs", jobs)
    assert code == EXIT_CAP
    docs = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [d["spec"] for d in docs] == ["C:4", "A:7", "S:4"]
    assert docs[0]["is_o_group"] and docs[2]["is_o_group"]
    assert docs[1] == {
        "spec": "A:7",
        "p": 3,
        "error": "cap",
        "detail": "group order 2520 exceeds ENUM_CAP 1000",
    }
    summary = json.loads(out)
    assert (summary["positive"], summary["negative"], summary["errors"]) == (2, 0, 1)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_validate_error_kinds_and_precedence(capsys, monkeypatch, tmp_path, jobs):
    """Parse and too-large entries give error records and exit 2, which an
    expectation mismatch does not lower and a cap error raises to 4."""
    mf = tmp_path / "m.txt"
    mf.write_text("Q:8 ; p=2 ; expect=T\nFOO:3 ; p=2\nPSL2:128 ; p=2\n")
    code, out, _ = run(capsys, "validate", str(mf), "--jobs", jobs)
    assert code == EXIT_PARSE
    docs = [json.loads(line) for line in out.splitlines()[:3]]
    assert [d.get("error") for d in docs] == [None, "parse", "too-large"]
    summary = json.loads(out[out.index("{\n") :])
    assert summary["errors"] == 2 and summary["expect_mismatches"]
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "100")
    mf.write_text("FOO:3 ; p=2\nS:5 ; p=2\n")
    code, _, _ = run(capsys, "validate", str(mf), "--jobs", jobs)
    assert code == EXIT_CAP


def test_validate_disagreement_outranks_errors(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(
        cli,
        "is_o_group_by_criterion",
        lambda G, p: OortVerdict(False, "CriterionOdd", "forced", ()),
    )
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "100")
    mf = tmp_path / "m.txt"
    mf.write_text("C:15 ; p=3\nS:5 ; p=2\nFOO:3 ; p=2\n")
    code, _, _ = run(capsys, "validate", str(mf))
    assert code == EXIT_DISAGREE


def _count_builds(monkeypatch, log):
    """Make cli.build_group append each spec it builds to the file log
    (a file, so that worker processes count too)."""
    real = cli.build_group

    def counted(spec):
        with open(log, "a") as fh:
            fh.write(spec + "\n")
        return real(spec)

    monkeypatch.setattr(cli, "build_group", counted)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_validate_builds_each_line_once(capsys, monkeypatch, tmp_path, jobs):
    """One build_group call per manifest line, for all of its primes; a
    line that fails to build gives one error record per prime."""
    log = tmp_path / "builds.txt"
    _count_builds(monkeypatch, log)
    mf = tmp_path / "m.txt"
    mf.write_text("C:12 ; p=2,3\nS:4 ; p=2,3 ; expect=T,T\nFOO:3 ; p=2,3\n")
    code, out, _ = run(capsys, "validate", str(mf), "--jobs", jobs)
    assert sorted(log.read_text().split()) == ["C:12", "FOO:3", "S:4"]
    docs = [json.loads(line) for line in out.splitlines()[:6]]
    assert [(d["spec"], d["p"], d.get("error")) for d in docs] == [
        ("C:12", 2, None),
        ("C:12", 3, None),
        ("S:4", 2, None),
        ("S:4", 3, None),
        ("FOO:3", 2, "parse"),
        ("FOO:3", 3, "parse"),
    ]
    assert docs[4]["detail"] == docs[5]["detail"]
    assert code == EXIT_PARSE


def test_validate_writes_each_line_as_it_completes(capsys, monkeypatch, tmp_path):
    """When the second line's routes run, --out already holds the first
    line's docs."""
    out_path = tmp_path / "o.jsonl"
    seen = []
    real = cli._run_routes

    def spying(spec, G, p, route):
        seen.append((spec, out_path.read_text()))
        return real(spec, G, p, route)

    monkeypatch.setattr(cli, "_run_routes", spying)
    mf = tmp_path / "m.txt"
    mf.write_text("C:12 ; p=2,3\nS:4 ; p=3\n")
    code, _, _ = run(capsys, "validate", str(mf), "--out", str(out_path))
    assert code == EXIT_OK
    first = [json.loads(line)["spec"] for line in seen[2][1].splitlines()]
    assert seen[2][0] == "S:4" and first == ["C:12", "C:12"]
    assert seen[0][1] == seen[1][1] == ""
    assert len(out_path.read_text().splitlines()) == 3


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_validate_out_holds_every_prime_of_a_line_past_the_cap(capsys, monkeypatch, tmp_path, jobs):
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "1000")
    mf = tmp_path / "m.txt"
    mf.write_text("C:4 ; p=2\nA:7 ; p=3,5\nS:4 ; p=3\n")
    out_path = tmp_path / "o.jsonl"
    code, out, _ = run(capsys, "validate", str(mf), "--out", str(out_path), "--jobs", jobs)
    assert code == EXIT_CAP
    docs = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [(d["spec"], d["p"], d.get("error")) for d in docs] == [
        ("C:4", 2, None),
        ("A:7", 3, "cap"),
        ("A:7", 5, "cap"),
        ("S:4", 3, None),
    ]
    summary = json.loads(out)
    assert (summary["entries"], summary["positive"], summary["errors"]) == (4, 2, 2)


def test_validate_reports_an_unwritable_out(capsys, tmp_path):
    mf = tmp_path / "m.txt"
    mf.write_text("C:4 ; p=2\n")
    code, out, err = run(capsys, "validate", str(mf), "--out", str(tmp_path / "no" / "o.jsonl"))
    assert code == EXIT_PARSE and out == "" and "error" in err
