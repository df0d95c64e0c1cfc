"""Session files, the task runner, report determinism, and the CLI."""

import json

import pytest

from reflextor.cli import main as cli_main
from reflextor.paper_suite import paper_suite, paper_suite_text
from reflextor.reports import (
    EXIT_CAP,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFICATION,
    report_json,
    revalidate_report,
    run_session,
)
from reflextor.session import SessionError, load_session

from cli_runner import REPO_ROOT, run_cli

FIX_A_DOCUMENT = {
    "schema": 1,
    "ring": {
        "field": "QQ",
        "vars": ["x", "y", "z", "w"],
        "ideal": ["x*y"],
        "height_one_primes": [["x", "y"]],
    },
    "modules": {
        "P": {"op": "cyclic", "ideal": ["y", "z", "w"]},
        "M": {"op": "transpose", "of": "P"},
        "N": {"op": "cyclic", "ideal": ["x"]},
        "T": {"op": "tensor", "args": ["M", "N"]},
    },
    "tasks": [
        {"task": "reflexive", "module": "M", "expect": False},
        {"task": "reflexive", "module": "N", "expect": True},
        {"task": "reflexive", "module": "T", "expect": True},
        {"task": "tor", "left": "M", "right": "N", "range": [1, 6],
         "expect_zero": True},
    ],
}


def _document(**overrides):
    doc = json.loads(json.dumps(FIX_A_DOCUMENT))
    doc.update(overrides)
    return doc


class TestSessionLoading:
    def test_fixture_session_loads(self):
        session = load_session(_document())
        assert session.ring.hypersurface
        assert set(session.modules) == {"P", "M", "N", "T"}

    def test_schema_required(self):
        with pytest.raises(SessionError):
            load_session(_document(schema=2))

    def test_malformed_polynomial_is_positioned(self):
        doc = _document()
        doc["ring"]["ideal"] = ["x *"]
        with pytest.raises(SessionError) as err:
            load_session(doc)
        assert "position" in str(err.value)

    def test_unknown_module_op(self):
        doc = _document()
        doc["modules"]["BAD"] = {"op": "frobnicate"}
        with pytest.raises(SessionError):
            load_session(doc)

    def test_cycle_detection(self):
        doc = _document()
        doc["modules"]["A"] = {"op": "minimize", "of": "B"}
        doc["modules"]["B"] = {"op": "minimize", "of": "A"}
        with pytest.raises(SessionError) as err:
            load_session(doc)
        assert "cycle" in str(err.value)

    def test_unknown_task_kind(self):
        doc = _document(tasks=[{"task": "divinate"}])
        with pytest.raises(SessionError):
            load_session(doc)

    def test_pushforward_and_syzygy_ops(self):
        doc = _document()
        doc["modules"]["PF"] = {"op": "pushforward", "of": "N"}
        doc["modules"]["S2"] = {"op": "syzygy", "of": "N", "n": 2}
        session = load_session(doc)
        assert session.modules["S2"].matrix_strings() == [["x"]]

    def test_prime_field_session(self):
        doc = {
            "schema": 1,
            "ring": {"field": {"prime": 7}, "vars": ["x", "y"], "ideal": ["x*y"]},
            "modules": {"M": {"op": "cyclic", "ideal": ["x"]}},
            "tasks": [
                {"task": "reflexive", "module": "M", "expect": True},
                {"task": "depth", "module": "M", "expect": 1},
            ],
        }
        report = run_session(load_session(doc))
        assert report["exit_code"] == EXIT_OK

    def test_minimal_prime_candidates_block(self):
        doc = _document()
        doc["ring"]["minimal_prime_candidates"] = [["x"], ["y"]]
        session = load_session(doc)
        primes = session.ring.minimal_primes()
        assert len(primes) == 2

    def test_rejected_candidates_are_input_errors(self):
        doc = _document()
        doc["ring"]["minimal_prime_candidates"] = [["z"]]
        with pytest.raises(SessionError):
            load_session(doc)

    def test_remaining_task_kinds(self):
        doc = {
            "schema": 1,
            "ring": {"field": "QQ", "vars": ["x", "y"], "ideal": ["x*y"]},
            "modules": {
                "M": {"op": "cyclic", "ideal": ["x"]},
                "K": {"op": "cyclic", "ideal": ["x", "y"]},
            },
            "tasks": [
                {"task": "torsionless", "module": "M", "expect": True},
                {"task": "is-torsion", "module": "K", "expect": True},
                {"task": "is-torsion", "module": "M", "expect": False},
                {"task": "minimal-primes"},
                {"task": "localized-rank", "module": "M", "prime": ["x"],
                 "expect": "free"},
                {"task": "ext", "left": "M", "right": "M", "range": [1, 2]},
            ],
        }
        report = run_session(load_session(doc))
        assert report["exit_code"] == EXIT_OK
        assert report["tasks"][3]["result"]["primes"] == [["x"], ["y"]]


class TestRunSession:
    def test_fixture_verdicts_and_exit(self):
        report = run_session(load_session(_document()))
        assert report["exit_code"] == EXIT_OK
        verdicts = [t["result"].get("verdict") for t in report["tasks"][:3]]
        assert verdicts == [False, True, True]
        tor_flags = [e["is_zero"] for e in report["tasks"][3]["result"]["values"]]
        assert tor_flags == [True] * 6

    def test_expectation_mismatch_exits_one(self):
        doc = _document()
        doc["tasks"] = [{"task": "reflexive", "module": "M", "expect": True}]
        report = run_session(load_session(doc))
        assert report["exit_code"] == EXIT_VERIFICATION

    def test_cap_exceeded_exits_three(self):
        doc = _document()
        doc["caps"] = {"resolution": 1}
        doc["tasks"] = [{"task": "depth", "module": "M"}]
        report = run_session(load_session(doc))
        assert report["exit_code"] == EXIT_CAP

    def test_depth_walk_is_bounded_by_the_resolution_cap(self):
        # depth d > 0 is read off the resolution over the ambient ring,
        # known at step 4 - d + 1: N (depth 3) fits a cap of 2, M does not
        doc = _document()
        doc["caps"] = {"resolution": 2}
        doc["tasks"] = [{"task": "depth", "module": "N"}]
        report = run_session(load_session(doc))
        assert report["exit_code"] == EXIT_OK
        assert report["tasks"][0]["result"]["value"] == 3

        doc["tasks"] = [{"task": "depth", "module": "M"}]
        report = run_session(load_session(doc))
        assert report["exit_code"] == EXIT_CAP
        assert report["tasks"][0]["result"]["error"] == \
            "depth: resolution length 3 exceeds the cap (2)"

        doc["caps"] = {"resolution": 4}
        doc["tasks"] = [{"task": "depth", "module": name}
                        for name in ("M", "N", "P", "T")]
        report = run_session(load_session(doc))
        assert report["exit_code"] == EXIT_OK
        assert [t["result"]["value"] for t in report["tasks"]] == [2, 3, 1, 2]

    @pytest.mark.parametrize("module, length, cap, betti, complete", [
        ("M", 5, 3, [3, 1], True),   # pd M = 1 ends inside the cap
        ("N", 1, 4, [1, 1], False),  # only the step asked for
        ("M", 1, 2, [3, 1], False),  # the end of M is found at step 2
    ])
    def test_resolve_answer_does_not_depend_on_task_order(
            self, module, length, cap, betti, complete):
        # alone, and after a pd task has walked the same module to the cap
        doc = _document()
        doc["caps"] = {"resolution": cap}
        resolve = {"task": "resolve", "module": module, "length": length}
        doc["tasks"] = [resolve]
        alone = run_session(load_session(doc))["tasks"][0]
        doc["tasks"] = [{"task": "pd", "module": module}, resolve]
        after = run_session(load_session(doc))["tasks"][1]
        assert (after["status"], after["result"]) == \
            (alone["status"], alone["result"])
        assert alone["status"] == "ok"
        assert alone["result"]["betti"] == betti
        assert alone["result"]["complete"] is complete

    def test_tor_certificate_does_not_depend_on_task_order(self):
        # the certificate reads the steps the Tor window walked (two here),
        # where the onset of R/(x, z) at step 2 does not show yet, not the
        # three a pd task leaves, where it does
        doc = _document()
        doc["modules"]["L"] = {"op": "cyclic", "ideal": ["x", "z"]}
        doc["caps"] = {"resolution": 3}
        formula = {"task": "depth-formula", "left": "L", "right": "L",
                   "window": 1}
        doc["tasks"] = [formula]
        alone = run_session(load_session(doc))["tasks"][0]
        doc["tasks"] = [{"task": "pd", "module": "L"}, formula]
        after = run_session(load_session(doc))["tasks"][1]
        assert after["result"] == alone["result"]
        assert alone["result"]["tor_certificate"] == "window_only"

    def test_resolution_cap_does_not_bound_hilbert_series(self):
        # the series resolves each Ext module over the ambient ring, a walk
        # bounded by the number of variables, not by the resolution cap
        doc = _document()
        doc["caps"] = {"resolution": 2}
        doc["tasks"] = [{"task": "ext", "left": "M", "right": "N", "range": [0, 1]}]
        report = run_session(load_session(doc))
        task = report["tasks"][0]
        assert report["exit_code"] == EXIT_OK and task["status"] == "ok"
        assert [e["hilbert_series"] for e in task["result"]["values"]] == [
            "(3*t^2 - 4*t^3 + t^4)/(1-t)^4",
            "(1 - 4*t + 6*t^2 - 4*t^3 + t^4)/(1-t)^4",
        ]

    def test_unknown_module_reference_is_input_error(self):
        doc = _document()
        doc["tasks"] = [{"task": "reflexive", "module": "NOPE"}]
        report = run_session(load_session(doc))
        assert report["exit_code"] == EXIT_INPUT

    def test_first_input_error_ends_the_run(self, monkeypatch):
        import reflextor.reports as reports_module
        from reflextor import __version__

        calls = []
        inner = reports_module.run_task

        def counted(session, task, index):
            calls.append(index)
            return inner(session, task, index)

        monkeypatch.setattr(reports_module, "run_task", counted)
        doc = _document()
        doc["tasks"] = [{"task": "reflexive", "module": "NOPE"}] + doc["tasks"]
        report = run_session(load_session(doc))
        assert calls == [0]
        assert report == {
            "schema": 1,
            "tool": {"name": "reflextor", "version": __version__},
            "error": "task field 'module' names no module: 'NOPE'",
            "exit_code": EXIT_INPUT,
        }

    def test_deterministic_json(self):
        a = report_json(run_session(load_session(_document())))
        b = report_json(run_session(load_session(_document())))
        assert a == b

    def test_report_revalidates(self):
        doc = _document()
        doc["tasks"] = doc["tasks"] + [
            {"task": "resolve", "module": "N", "length": 5},
            {"task": "verify", "pipeline": "thm1.1", "left": "M", "right": "N"},
        ]
        report = run_session(load_session(doc))
        assert revalidate_report(report) == []

    def test_verify_task_counterexample_trap(self):
        doc = _document()
        doc["tasks"] = [
            {"task": "verify", "pipeline": "thm1.2", "left": "M", "right": "N"},
            {"task": "verify", "pipeline": "cor4.6", "left": "M", "right": "N",
             "n": 2, "rigidity": "finite-pd-hypersurface"},
        ]
        report = run_session(load_session(doc))
        assert report["exit_code"] == EXIT_OK
        for t in report["tasks"]:
            assert t["result"]["verdict"] != "counterexample-candidate"


def _set_entry(step, entry):
    def tamper(report):
        report["tasks"][0]["result"]["differentials"][step][0][0] = entry
    return tamper


def _flip_tor_one(report):
    value = report["tasks"][1]["result"]["values"][0]
    value["is_zero"] = not value["is_zero"]


def _drift_basis(report):
    report["ring"]["groebner_basis"] = ["x^2*y"]


class TestRevalidationFires:
    """`revalidate_report` on tampered copies of one report: the resolution
    of N to length 3 and Tor_1, Tor_2(M, N) of the fixture session."""

    @pytest.fixture(scope="class")
    def report(self):
        doc = _document(tasks=[
            {"task": "resolve", "module": "N", "length": 3},
            {"task": "tor", "left": "M", "right": "N", "range": [1, 2]},
        ])
        return json.loads(report_json(run_session(load_session(doc))))

    @pytest.mark.parametrize("tamper, problems", [
        (None, []),
        (_set_entry(1, "x"), ["task-0: d.d != 0 at step 2",
                              "task-0: d.d != 0 at step 3"]),
        (_set_entry(0, "1"), ["task-0: d.d != 0 at step 2",
                              "task-0: scalar entry in a minimal resolution"]),
        (_flip_tor_one, ["task-1[i=1]: membership recheck disagrees with is_zero"]),
        (_drift_basis, ["ring basis drifted from the embedded certificate"]),
    ], ids=["clean", "d2-entry-x", "d1-entry-1", "tor1-is-zero", "ring-basis"])
    def test_each_tampering_is_reported(self, report, tamper, problems):
        copy = json.loads(json.dumps(report))
        if tamper is not None:
            tamper(copy)
        assert revalidate_report(copy) == problems


class TestPaperSuite:
    def test_all_claims_verified(self):
        report = paper_suite()
        assert report["verified"] == report["total"] == 14
        assert report["exit_code"] == EXIT_OK

    def test_fault_injection_names_first_failing_claim(self, monkeypatch):
        from reflextor import modules as modules_mod
        from reflextor.modules import PresentedModule

        real_transpose = modules_mod.transpose

        # negating one entry of a one-column presentation only twists by an
        # automorphism, so corrupt the entry content instead: duplicate a
        # neighboring coordinate, which genuinely changes the cokernel
        def corrupted_transpose(m, caps=None):
            honest = real_transpose(m, caps)
            if not honest.columns or honest.num_generators < 2:
                return honest
            from reflextor.groebner import FreeVector

            first = honest.columns[0]
            coords = list(first.coords)
            coords[0] = coords[1]
            broken = (FreeVector(honest.ring.sig, coords),) + honest.columns[1:]
            return PresentedModule(honest.ring, honest.gen_degrees, broken)

        monkeypatch.setattr(modules_mod, "transpose", corrupted_transpose)
        report = paper_suite()
        assert report["exit_code"] == EXIT_VERIFICATION
        assert "FIRST FAILING CLAIM: " in paper_suite_text(report)

    def test_json_mirror_matches_claim_verdicts(self):
        from reflextor.reports import report_json

        report = paper_suite()
        parsed = json.loads(report_json(report))
        assert parsed["claims"] == report["claims"]


class TestCli:
    def test_run_session_file(self, tmp_path):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(_document()))
        proc = run_cli("run", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "verdict False" in proc.stdout

    def test_pushforward_of_the_fixture_module_exits_zero(self, tmp_path):
        doc = json.loads((REPO_ROOT / "scripts" / "sessions"
                          / "hypersurface_xy.json").read_text())
        doc["modules"]["PF"] = {"op": "pushforward", "of": "M"}
        doc["tasks"].append({"task": "reflexive", "module": "PF"})
        path = tmp_path / "session.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path))
        assert proc.returncode == 0, proc.stderr

    def test_coker_with_a_constant_entry(self, tmp_path):
        # C is M with a generator e of degree 0 added and killed by the
        # relation e + y*e_0 (and x*e, which then vanishes since xy = 0),
        # so C is isomorphic to M; the matrix it prints is not pinned
        doc = _document()
        doc["modules"]["C"] = {
            "op": "coker", "degrees": [-1, -1, -1, 0],
            "matrix": [["w", "y", "0"], ["y", "0", "0"], ["z", "0", "0"],
                       ["0", "1", "x"]],
        }
        doc["modules"]["CN"] = {"op": "tensor", "args": ["C", "N"]}
        doc["tasks"] = [
            {"task": "reflexive", "module": "C", "expect": False},
            {"task": "reflexive", "module": "CN", "expect": True},
            {"task": "tor", "left": "C", "right": "N", "range": [1, 4],
             "expect_zero": True},
        ]
        path = tmp_path / "session.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        results = [t["result"] for t in report["tasks"]]
        assert [r["verdict"] for r in results[:2]] == [False, True]
        assert [e["is_zero"] for e in results[2]["values"]] == [True] * 4
        assert revalidate_report(report) == []

    def test_malformed_session_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = _document()
        doc["ring"]["ideal"] = ["x +"]
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path))
        assert proc.returncode == 2, proc.stderr
        assert "position" in proc.stderr

    @pytest.mark.parametrize("change,field", [
        (lambda doc: doc.update(caps={"pairs": "abc"}), "caps.pairs"),
        (lambda doc: doc.update(caps={"resolution": [1]}), "caps.resolution"),
        (lambda doc: doc.update(tasks=[{"task": "pd"}]), "module"),
        (lambda doc: doc.update(tasks=[{"task": "tor", "left": "M", "right": "N",
                                        "i": "x"}]), "i"),
        (lambda doc: doc.update(tasks=[{"task": "localized-rank", "module": "M"}]),
         "prime"),
        (lambda doc: doc.update(tasks=[{"task": "localized-rank", "module": "M",
                                        "prime": ["x+"]}]), "prime"),
        (lambda doc: doc.update(tasks=[{"task": "verify", "pipeline": "thm3.1",
                                        "left": "M", "right": "N",
                                        "rigidity": "bogus"}]), "rigidity"),
        (lambda doc: doc["modules"].update(F={"op": "free", "degrees": "ab"}),
         "module F.degrees"),
    ], ids=["caps-pairs", "caps-resolution", "pd-no-module", "tor-i",
            "localized-rank-no-prime", "localized-rank-bad-prime", "thm3.1-rigidity",
            "free-degrees"])
    def test_malformed_field_exits_two_naming_it(self, tmp_path, change, field):
        doc = _document()
        change(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "input error" in proc.stdout + proc.stderr
        assert repr(field) in proc.stdout + proc.stderr

    def test_missing_file_exits_two(self):
        proc = run_cli("run", "/nonexistent/session.json")
        assert proc.returncode == 2, proc.stderr

    def test_cap_flag_exits_three(self, tmp_path):
        path = tmp_path / "session.json"
        doc = _document()
        doc["tasks"] = [{"task": "depth", "module": "M"}]
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path), "--cap-resolution", "1")
        assert proc.returncode == 3, proc.stderr

    def test_paper_suite_cap_flag_exits_three(self):
        proc = run_cli("paper-suite", "--cap-pairs", "1")
        assert proc.returncode == 3, proc.stderr
        assert "cap exceeded" in proc.stderr

    def test_environment_cap_reaches_paper_suite(self, monkeypatch, capsys):
        monkeypatch.setenv("REFLEXTOR_CAP_PAIRS", "1")
        assert cli_main(["paper-suite"]) == EXIT_CAP
        assert "cap exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("variable", ["REFLEXTOR_CAP_PAIRS",
                                          "REFLEXTOR_CAP_RESOLUTION",
                                          "REFLEXTOR_TOR_WINDOW"])
    def test_malformed_environment_cap_exits_two_naming_it(
            self, tmp_path, monkeypatch, capsys, variable):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(_document()))
        monkeypatch.setenv(variable, "abc")
        assert cli_main(["run", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "input error" in err and variable in err

    def test_cap_flag_wins_over_environment(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "session.json"
        doc = _document()
        doc["tasks"] = [{"task": "reflexive", "module": "N"}]
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("REFLEXTOR_CAP_PAIRS", "abc")
        assert cli_main(["run", str(path), "--cap-pairs", "1000"]) == EXIT_OK
        capsys.readouterr()

    def test_paper_suite_json_deterministic(self):
        a = run_cli("paper-suite", "--json")
        b = run_cli("paper-suite", "--json")
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert a.stdout == b.stdout and a.stdout

    def test_check_and_verify_subcommands(self, tmp_path):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(_document()))
        for argv in (
            ("check", "reflexive", "--session", str(path), "N"),
            ("check", "ntf", "--session", str(path), "M", "-n", "2"),
            ("verify", "thm1.1", "--session", str(path), "M", "N"),
            ("verify", "thm3.1", "--session", str(path), "M", "N",
             "-n", "2", "--rigidity", "finite-pd-hypersurface"),
        ):
            proc = run_cli(*argv)
            assert proc.returncode == 0, proc.stderr

    def test_tor_and_resolve_and_graph(self, tmp_path):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(_document()))
        proc = run_cli("tor", "--session", str(path), "M", "N",
                       "--from", "1", "--to", "3")
        assert proc.returncode == 0, proc.stderr
        assert "is_zero [True, True, True]" in proc.stdout
        proc = run_cli("resolve", "--session", str(path), "N", "--length", "4")
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("hh-graph", "--session", str(path))
        assert proc.returncode == 0, proc.stderr

    def test_rigidity_search_subcommand(self, tmp_path):
        doc = {
            "schema": 1,
            "ring": {"field": "QQ", "vars": ["x", "y"], "ideal": ["x*y"]},
            "modules": {
                "A": {"op": "cyclic", "ideal": ["x"]},
                "B": {"op": "cyclic", "ideal": ["y^2"]},
            },
            "tasks": [],
        }
        path = tmp_path / "session.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("rigidity-search", "--session", str(path),
                       "--window", "3", "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        violations = payload["tasks"][0]["result"]["violations"]
        assert violations and violations[0]["kind"] == "1-rigidity"


class TestRingOutsideTaskClass:
    """A task that needs minimal primes the ring cannot supply, or heights
    on a ring that is not equidimensional, is an input error naming the
    task, not an engine fault."""

    @staticmethod
    def _session(tmp_path, ideal, task):
        doc = {
            "schema": 1,
            "ring": {"field": "QQ", "vars": ["x", "y", "z", "w"], "ideal": ideal},
            "modules": {"M": {"op": "cyclic", "ideal": ["x"]},
                        "N": {"op": "cyclic", "ideal": ["y"]}},
            "tasks": [dict(task, name="probe")],
        }
        path = tmp_path / "session.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("ideal, task, reason", [
        (["x*y - z*w"], {"task": "hh-graph"}, "minimal primes need"),
        (["x*y - z*w"], {"task": "is-torsion", "module": "M"}, "minimal primes need"),
        (["x*y - z*w"], {"task": "minimal-primes"}, "minimal primes need"),
        (["x*y - z*w"], {"task": "verify", "pipeline": "thm1.1", "left": "M",
                         "right": "N"}, "minimal primes need"),
        (["x*y", "x*z"], {"task": "hh-graph"}, "not equidimensional"),
        (["x*y", "x*z"], {"task": "graph-rank", "module": "M"},
         "not equidimensional"),
        (["x*y", "x*z"], {"task": "verify", "pipeline": "thm1.1", "left": "M",
                          "right": "N"}, "not equidimensional"),
        (["x*y", "x*z"], {"task": "verify", "pipeline": "thm1.2", "left": "M",
                          "right": "N"}, "not equidimensional"),
    ], ids=["no-primes-hh-graph", "no-primes-is-torsion", "no-primes-minimal-primes",
            "no-primes-thm1.1", "mixed-dim-hh-graph", "mixed-dim-graph-rank",
            "mixed-dim-thm1.1", "mixed-dim-thm1.2"])
    def test_exits_two_naming_the_task(self, tmp_path, capsys, ideal, task, reason):
        path = self._session(tmp_path, ideal, task)
        assert cli_main(["run", str(path)]) == EXIT_INPUT
        out = capsys.readouterr()
        text = out.out + out.err
        assert "input error" in text
        assert "'probe'" in text and task["task"] in text
        assert reason in text

    def test_child_process_prints_no_traceback(self, tmp_path):
        path = self._session(tmp_path, ["x*y - z*w"], {"task": "hh-graph"})
        proc = run_cli("run", str(path), "--json")
        assert proc.returncode == EXIT_INPUT, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["exit_code"] == EXIT_INPUT


class TestOutOfRange:
    """Integer fields below their least value, a unit prime and a refused
    pushforward are input errors naming the field (exit 2), whether they
    come from a session file, a cap flag, an environment variable or a
    subcommand flag.  The CLI runs in process, so a traceback fails the
    test as an uncaught exception."""

    @pytest.mark.parametrize("change,field", [
        (lambda doc: doc.update(tasks=[{"task": "rigidity-search", "window": 1}]),
         "window"),
        (lambda doc: doc.update(tasks=[{"task": "tor", "left": "M", "right": "N",
                                        "i": -1}]), "i"),
        (lambda doc: doc.update(tasks=[{"task": "ext", "left": "M", "right": "N",
                                        "range": [-2, -1]}]), "range"),
        (lambda doc: doc.update(tasks=[{"task": "tor", "left": "M", "right": "N",
                                        "range": [3, 1], "expect_zero": True}]),
         "range"),
        (lambda doc: doc.update(tasks=[{"task": "ntf", "module": "M", "n": 0}]), "n"),
        (lambda doc: doc.update(tasks=[{"task": "verify", "pipeline": "thm3.1",
                                        "left": "M", "right": "N", "n": 0}]), "n"),
        (lambda doc: doc.update(tasks=[{"task": "verify", "pipeline": "thm1.1",
                                        "left": "M", "right": "N", "window": 0}]),
         "window"),
        (lambda doc: doc.update(tasks=[{"task": "depth-formula", "left": "M",
                                        "right": "N", "window": 0}]), "window"),
        (lambda doc: doc.update(tasks=[{"task": "depth-formula", "left": "M",
                                        "right": "N", "window": -1}]), "window"),
        (lambda doc: doc.update(tasks=[{"task": "localized-rank", "module": "M",
                                        "prime": ["1"]}]), "prime"),
        (lambda doc: doc.update(tasks=[{"task": "resolve", "module": "M",
                                        "length": -1}]), "length"),
        (lambda doc: doc["modules"].update(S={"op": "syzygy", "of": "M", "n": -1}),
         "module S.n"),
        (lambda doc: doc["modules"].update(Q={"op": "cyclic", "ideal": ["x", "z"]},
                                           S={"op": "pushforward", "of": "Q"}), "S"),
        (lambda doc: doc.update(caps={"tor_window": 0}), "caps.tor_window"),
        (lambda doc: doc.update(caps={"pairs": -1}), "caps.pairs"),
        (lambda doc: doc.update(caps={"degree": -1}), "caps.degree"),
        (lambda doc: doc.update(caps={"resolution": -1}), "caps.resolution"),
        (lambda doc: doc.update(tasks=[{"task": "tor", "left": "M", "right": "N",
                                        "i": 1.9}]), "i"),
        (lambda doc: doc.update(tasks=[{"task": "resolve", "module": "M",
                                        "length": 2.99}]), "length"),
        (lambda doc: doc.update(caps={"pairs": True}), "caps.pairs"),
        # a bare string in a list-valued field would be read as its characters
        (lambda doc: doc["modules"].update(P={"op": "cyclic", "ideal": "yzw"}),
         "module P.ideal"),
        (lambda doc: doc.update(tasks=[{"task": "rigidity-search", "catalog": "PM"}]),
         "catalog"),
        (lambda doc: doc["ring"].update(ideal="xy"), "ring.ideal"),
        (lambda doc: doc["ring"].update(height_one_primes=["xy"]),
         "ring.height_one_primes"),
        (lambda doc: doc["ring"].update(minimal_prime_candidates=["x", "y"]),
         "ring.minimal_prime_candidates"),
        (lambda doc: doc["ring"].update(factors="xy"), "ring.factors"),
        (lambda doc: doc["modules"].update(C={"op": "coker", "matrix": ["xy"],
                                              "degrees": [0]}), "module C.matrix"),
        (lambda doc: doc["modules"].update(T={"op": "tensor", "args": "MN"}),
         "module T.args"),
        # a number or a list where a string is expected
        (lambda doc: doc["ring"].update(vars=[1, 2]), "ring.vars"),
        (lambda doc: doc["ring"].update(ideal=[3]), "ring.ideal"),
        (lambda doc: doc["ring"].update(factors=["x", 2]), "ring.factors"),
        (lambda doc: doc["modules"].update(Q={"op": "cyclic", "ideal": ["x", 4]}),
         "module Q.ideal"),
        (lambda doc: doc.update(tasks=[{"task": "localized-rank", "module": "M",
                                        "prime": [5]}]), "prime"),
        (lambda doc: doc["modules"].update(D={"op": "dual", "of": ["M"]}),
         "module D.of"),
        (lambda doc: doc["modules"].update(T={"op": "tensor", "args": [["M"], "N"]}),
         "module T.args"),
        (lambda doc: doc.update(tasks=[{"task": "verify", "pipeline": ["thm1.1"],
                                        "left": "M", "right": "N"}]), "pipeline"),
    ], ids=["rigidity-search-window", "tor-i", "ext-range", "tor-empty-range",
            "ntf-n", "thm3.1-n", "verify-window", "depth-formula-window-0", "depth-formula-window-neg",
            "localized-rank-unit-prime", "resolve-length", "syzygy-n",
            "pushforward-not-torsionless", "caps-tor-window", "caps-pairs",
            "caps-degree", "caps-resolution", "tor-i-fraction",
            "resolve-length-fraction", "caps-pairs-boolean", "cyclic-ideal-string",
            "catalog-string", "ring-ideal-string", "height-one-group-string",
            "candidate-group-string", "factors-string", "coker-row-string",
            "tensor-args-string", "vars-numbers", "ring-ideal-number",
            "factors-number", "cyclic-ideal-number", "prime-number", "of-list",
            "tensor-arg-list", "pipeline-list"])
    def test_session_field_exits_two_naming_it(self, tmp_path, capsys, change, field):
        doc = _document()
        change(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", str(path)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert "input error" in out.out + out.err
        assert repr(field) in out.out + out.err

    @pytest.mark.parametrize("argv,field", [
        (("run", "{path}", "--tor-window", "0"), "caps.tor_window"),
        (("run", "{path}", "--tor-window", "-3"), "caps.tor_window"),
        (("run", "{path}", "--cap-resolution", "-1"), "caps.resolution"),
        (("run", "{path}", "--cap-pairs", "-1"), "caps.pairs"),
        (("paper-suite", "--cap-pairs", "-1"), "caps.pairs"),
        (("tor", "--session", "{path}", "M", "N", "--from", "-1"), "range"),
        (("ext", "--session", "{path}", "M", "N", "--from", "3", "--to", "1"), "range"),
        (("check", "ntf", "--session", "{path}", "M", "-n", "0"), "n"),
        (("verify", "thm3.1", "--session", "{path}", "M", "N", "-n", "0"), "n"),
        (("rigidity-search", "--session", "{path}", "--window", "1"), "window"),
        (("resolve", "--session", "{path}", "M", "--length", "-1"), "length"),
    ], ids=["tor-window-0", "tor-window-neg", "cap-resolution", "cap-pairs",
            "paper-suite-cap-pairs", "from", "to-below-from", "ntf-n", "thm3.1-n",
            "window", "length"])
    def test_flag_exits_two_naming_it(self, tmp_path, capsys, argv, field):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(_document()))
        argv = [a.format(path=path) for a in argv]
        assert cli_main(argv) == EXIT_INPUT
        out = capsys.readouterr()
        assert "input error" in out.out + out.err
        assert repr(field) in out.out + out.err

    def test_environment_tor_window_exits_two(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(_document()))
        monkeypatch.setenv("REFLEXTOR_TOR_WINDOW", "0")
        assert cli_main(["run", str(path)]) == EXIT_INPUT
        assert "'caps.tor_window'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--cap-pairs", "--cap-resolution"])
    def test_least_cap_values_still_run(self, tmp_path, capsys, flag):
        # a cap of 1 is in range; the run then hits it
        path = tmp_path / "session.json"
        doc = _document()
        doc["tasks"] = [{"task": "depth", "module": "M"}]
        path.write_text(json.dumps(doc))
        assert cli_main(["run", str(path), flag, "1"]) == EXIT_CAP
        capsys.readouterr()
