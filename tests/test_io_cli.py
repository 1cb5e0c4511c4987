import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crowdplan
from crowdplan import cli
from crowdplan.cli import main
from crowdplan.errors import (
    CrowdPlanError,
    InputError,
    MissingWorkerCptError,
    NumericError,
    ResourceLimitError,
)
from crowdplan.inference import infer
from crowdplan.io import parse_budgets, parse_int_list, read_votes_csv, write_votes_csv
from crowdplan.evaluation import budget_sweep
from crowdplan.model import Dataset, TaskSample, load_model, save_model
from crowdplan.simulator import generate

from _oracles import sym_model
from test_golden import ragged_votes

from importlib.resources import files

EXAMPLE = str(files("crowdplan") / "data" / "example_model.json")


def write_csv(path, rows, header="task_id,path_id,worker_id,vote,truth"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestReadVotes:
    def test_round_trip(self, tmp_path):
        m = sym_model([0.5, 0.5], [0.85, 0.7], [0.9, 0.8])
        data = generate(m, [2, 3], 40, seed=1)
        f = tmp_path / "votes.csv"
        write_votes_csv(data, str(f))
        back, names = read_votes_csv(str(f), names=("0", "1"))
        assert names == ("0", "1")
        assert back == data

    def test_named_labels_first_seen_order(self, tmp_path):
        f = tmp_path / "v.csv"
        write_csv(
            f,
            [
                "t1,0,alice,yes,no",
                "t1,0,bob,no,no",
                "t2,0,alice,no,",
            ],
        )
        data, names = read_votes_csv(str(f))
        assert names == ("yes", "no")
        assert data.samples[0].votes_for(0) == (("alice", 0), ("bob", 1))
        assert data.samples[0].truth == 1
        assert data.samples[1].truth is None

    def test_fixed_label_set(self, tmp_path):
        f = tmp_path / "v.csv"
        write_csv(f, ["t1,0,,yes,", "t2,0,,no,"])
        data, names = read_votes_csv(str(f), names=("no", "yes"))
        assert names == ("no", "yes")
        assert data.samples[0].votes_for(0)[0][1] == 1

    def test_unknown_label_rejected(self, tmp_path):
        f = tmp_path / "v.csv"
        write_csv(f, ["t1,0,,maybe,"])
        with pytest.raises(InputError, match="line 2"):
            read_votes_csv(str(f), names=("no", "yes"))

    def test_conflicting_truth_rejected(self, tmp_path):
        f = tmp_path / "v.csv"
        write_csv(f, ["t1,0,,yes,yes", "t1,0,,yes,no"])
        with pytest.raises(InputError, match="truth"):
            read_votes_csv(str(f))

    def test_header_enforced(self, tmp_path):
        f = tmp_path / "v.csv"
        write_csv(f, ["t1,0,,yes,"], header="task,path,worker,vote,truth")
        with pytest.raises(InputError, match="header"):
            read_votes_csv(str(f))

    def test_bad_path_index(self, tmp_path):
        f = tmp_path / "v.csv"
        write_csv(f, ["t1,x,,yes,"])
        with pytest.raises(InputError, match="line 2"):
            read_votes_csv(str(f))

    @pytest.mark.parametrize(
        "path_id, error",
        [
            ("9223372036854775807", None),
            ("9223372036854775808", "bad path_id '9223372036854775808'"),
        ],
    )
    def test_path_id_bound(self, tmp_path, path_id, error):
        f = tmp_path / "v.csv"
        write_csv(f, ["t1,0,,no,", f"t2,{path_id},,yes,"])
        if error is None:
            assert read_votes_csv(str(f))[0].num_paths == 2**63
            return
        with pytest.raises(InputError) as exc:
            read_votes_csv(str(f))
        assert str(exc.value) == f"line 3: {error}"

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        f = tmp_path / "v.csv"
        f.write_bytes(b"task_id,path_id,worker_id,vote,truth\nt1,0,,no,\nt2,0,,y\xffes,\n")
        with pytest.raises(InputError, match=r"v\.csv: line 3: not valid UTF-8"):
            read_votes_csv(str(f))

    def test_csv_error_names_file_and_line(self, tmp_path):
        f = tmp_path / "v.csv"
        write_csv(f, ["t1,0,,no,", "t2,0,," + "y" * 200_000 + ","])
        with pytest.raises(InputError, match=r"v\.csv: line 3: field larger than field limit"):
            read_votes_csv(str(f))

    def test_single_label_file_rejected(self, tmp_path):
        f = tmp_path / "v.csv"
        write_csv(f, ["t1,0,,yes,", "t2,0,,yes,yes"])
        with pytest.raises(InputError, match="label"):
            read_votes_csv(str(f))

    def test_write_uses_names(self, tmp_path):
        s = TaskSample(task_id="t", votes={0: (("w", 1),)}, truth=0)
        data = Dataset(samples=(s,), num_paths=1, num_labels=2)
        f = tmp_path / "v.csv"
        write_votes_csv(data, str(f), names=("no", "yes"))
        rows = list(csv.DictReader(f.open()))
        assert rows[0]["vote"] == "yes"
        assert rows[0]["truth"] == "no"


class TestTabulation:
    """Each CLI command tabulates its votes file once and builds no per-task objects."""

    @pytest.fixture
    def counts(self, monkeypatch, tmp_path):
        votes = tmp_path / "votes.csv"
        with open(votes, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task_id", "path_id", "worker_id", "vote", "truth"])
            writer.writerows(ragged_votes(num_tasks=40))
        seen = {"tabulate": 0, "task_samples": 0}
        tabulate = Dataset.tabulate.__func__
        post_init = TaskSample.__post_init__

        def counted_tabulate(cls, *args, **kwargs):
            seen["tabulate"] += 1
            return tabulate(cls, *args, **kwargs)

        def counted_post_init(sample):
            seen["task_samples"] += 1
            post_init(sample)

        monkeypatch.setattr(Dataset, "tabulate", classmethod(counted_tabulate))
        monkeypatch.setattr(TaskSample, "__post_init__", counted_post_init)
        return seen, votes

    def run(self, seen, argv):
        seen.update(tabulate=0, task_samples=0)
        assert main(argv) == 0
        return dict(seen)

    def test_learn_and_infer(self, counts, tmp_path):
        seen, votes = counts
        em = ["--max-iters", "3", "--restarts", "2"]
        once = {"tabulate": 1, "task_samples": 0}
        fits = {"apm": [], "pw": ["--no-share-workers"], "nbi": ["--model-kind", "nbi"]}
        for name, extra in fits.items():
            argv = ["learn", "--votes", str(votes), *extra, *em, "--out", str(tmp_path / name)]
            assert self.run(seen, argv) == once, name
        infers = (("apm", "apm"), ("nbap", "apm"), ("mv", "apm"), ("nbi", "nbi"), ("apm", "pw"))
        for kind, fit in infers:
            argv = ["infer", "--model", str(tmp_path / fit), "--votes", str(votes),
                    "--model-kind", kind, "--out", str(tmp_path / "post.csv")]
            assert self.run(seen, argv) == once, (kind, fit)

    def test_sweep_cells_select_rows_without_tabulating(self, counts, tmp_path):
        seen, votes = counts
        argv = ["sweep", "--votes", str(votes), "--models", "apm,nbap,mv,nbi",
                "--strategies", "greedy,equal", "--budgets", "3,6", "--folds", "2",
                "--max-iters", "3", "--restarts", "1", "--out", str(tmp_path / "sweep.csv")]
        assert self.run(seen, argv) == {"tabulate": 1, "task_samples": 0}
        data, _ = read_votes_csv(str(votes))
        seen.update(tabulate=0)
        budget_sweep(data, ["apm", "nbi"], ["equal"], [3, 6], folds=3)
        assert seen == {"tabulate": 0, "task_samples": 0}


class TestParsers:
    def test_budget_forms(self):
        assert parse_budgets("3,5,8") == ["3", "5", "8"]
        assert parse_budgets("3..6") == ["3", "4", "5", "6"]
        assert parse_budgets("3..30..9") == ["3", "12", "21", "30"]

    def test_budget_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_budgets("3..")
        with pytest.raises(InputError):
            parse_budgets("6..3")
        with pytest.raises(InputError):
            parse_budgets("1..9..0")

    def test_int_list(self):
        assert parse_int_list("2,0,3", "plan") == [2, 0, 3]
        with pytest.raises(InputError):
            parse_int_list("2,x", "plan")


class TestCliPipeline:
    def test_full_workflow(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        model = tmp_path / "model.json"
        preds = tmp_path / "preds.csv"
        sweep = tmp_path / "sweep.csv"

        rc = main(
            [
                "simulate",
                "--model",
                EXAMPLE,
                "--plan",
                "3,3,3",
                "--tasks",
                "60",
                "--seed",
                "5",
                "--out",
                str(votes),
            ]
        )
        assert rc == 0

        rc = main(
            [
                "learn",
                "--votes",
                str(votes),
                "--out",
                str(model),
                "--costs",
                "2,3,4",
                "--max-iters",
                "150",
                "--restarts",
                "2",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["converged"] in (True, False)
        doc = json.loads(model.read_text())
        assert doc["kind"] == "apm"
        assert doc["paths"][0]["cost"] == "2"

        rc = main(
            ["plan", "--model", str(model), "--budget", "9", "--strategy", "greedy"]
        )
        assert rc == 0
        plan_doc = json.loads(capsys.readouterr().out.strip())
        assert len(plan_doc["counts"]) == 3
        assert plan_doc["mode"] in ("exact", "sampled")
        assert plan_doc["bound"] is not None

        rc = main(
            [
                "infer",
                "--model",
                str(model),
                "--votes",
                str(votes),
                "--model-kind",
                "apm",
                "--out",
                str(preds),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(preds.open()))
        assert len(rows) == 60
        assert rows[0]["task_id"] == "t000000"
        assert set(rows[0]) >= {"task_id", "prediction", "confidence"}

        rc = main(
            [
                "sweep",
                "--votes",
                str(votes),
                "--budgets",
                "3,6",
                "--models",
                "mv,apm",
                "--strategies",
                "equal",
                "--folds",
                "2",
                "--out",
                str(sweep),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(sweep.open()))
        assert len(rows) == 2 * 1 * 2 * 2
        assert {r["model"] for r in rows} == {"mv", "apm"}

    def test_learn_nbi(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        model = tmp_path / "nbi.json"
        base = sym_model([0.5, 0.5], [0.9, 0.85], [0.5, 0.5])
        from crowdplan.model import Cpt

        crewed = type(base)(
            labels=base.labels,
            prior=base.prior,
            paths=base.paths,
            path_cpts=base.path_cpts,
            worker_cpts=(
                {"ann": Cpt([[0.9, 0.1], [0.1, 0.9]])},
                {"ben": Cpt([[0.8, 0.2], [0.2, 0.8]])},
            ),
        )
        crew_file = tmp_path / "crew.json"
        save_model(crewed, str(crew_file))
        main(
            [
                "simulate",
                "--model",
                str(crew_file),
                "--plan",
                "2,2",
                "--tasks",
                "40",
                "--out",
                str(votes),
            ]
        )
        rc = main(
            [
                "learn",
                "--votes",
                str(votes),
                "--model-kind",
                "nbi",
                "--out",
                str(model),
            ]
        )
        assert rc == 0
        assert json.loads(model.read_text())["kind"] == "nbi"
        rc = main(
            [
                "infer",
                "--model",
                str(model),
                "--votes",
                str(votes),
                "--model-kind",
                "nbi",
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 0

    def test_simulate_zero_tasks_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        rc = main(
            ["simulate", "--model", EXAMPLE, "--plan", "1,1,1", "--tasks", "0", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().strip() == "task_id,path_id,worker_id,vote,truth"

    def test_parser_is_built_once_and_each_call_sees_its_own_defaults(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        write_csv(votes, [",".join(row) for row in ragged_votes(num_tasks=30)])
        learn = ["learn", "--votes", str(votes), "--max-iters", "5", "--restarts", "1"]
        assert main([*learn, "--no-share-workers", "--out", str(tmp_path / "pw.json")]) == 0
        assert main([*learn, "--out", str(tmp_path / "shared.json")]) == 0
        pw, shared = (json.loads((tmp_path / f).read_text()) for f in ("pw.json", "shared.json"))
        assert all("worker_cpts" in p and "shared_cpt" not in p for p in pw["paths"])
        assert all("shared_cpt" in p and "worker_cpts" not in p for p in shared["paths"])
        assert cli.build_parser() is cli.build_parser()


class TestCliExitCodes:
    def test_missing_model_file(self, tmp_path, capsys):
        rc = main(["plan", "--model", str(tmp_path / "nope.json"), "--budget", "3"])
        assert rc == 2
        assert capsys.readouterr().err.strip()

    def test_mv_has_nothing_to_learn(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        main(
            ["simulate", "--model", EXAMPLE, "--plan", "1,1,1", "--tasks", "5", "--out", str(votes)]
        )
        rc = main(
            ["learn", "--votes", str(votes), "--model-kind", "mv", "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2

    def test_opt_enumeration_limit(self, capsys):
        rc = main(
            ["plan", "--model", EXAMPLE, "--budget", "400", "--strategy", "opt"]
        )
        assert rc == 3

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (
                ["simulate", "--model", EXAMPLE, "--plan", "2147483648,0,0", "--tasks", "1"],
                "simulation needs 2147483650 array cells",
            ),
            (
                ["simulate", "--model", EXAMPLE, "--plan", f"{2**63},0,0", "--tasks", "1"],
                "simulation needs 9223372036854775810 array cells",
            ),
            (
                ["plan", "--model", EXAMPLE, "--strategy", "best", "--budget", "1e30"],
                "sampled information gain needs",
            ),
            (
                ["learn", "--votes", "VOTES"],
                "fitting every path's table needs 4000000000004 array cells",
            ),
        ],
        ids=["simulate-2^31", "simulate-2^63", "plan-best", "learn-sparse-path"],
    )
    def test_arrays_beyond_the_size_limit_exit_3(self, tmp_path, capsys, argv, needle):
        votes = tmp_path / "votes.csv"
        write_csv(votes, ["t1,0,w,a,", "t2,1000000000000,w,b,", "t3,0,w,a,a"])
        out = tmp_path / "out"
        argv = [str(votes) if a == "VOTES" else a for a in argv]
        rc = main(argv + ([] if argv[0] == "plan" else ["--out", str(out)]))
        err = capsys.readouterr().err
        assert (rc, err.count("\n")) == (3, 1)
        assert err.startswith(f"error: {needle}")
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["equal", "rnd", "greedy"])
    def test_budget_beyond_the_size_limit_exits_3_at_once(self, strategy):
        """These strategies buy one vote per step, so the guard must come before the loop."""
        env = dict(os.environ, PYTHONPATH=str(Path(crowdplan.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "crowdplan.cli", "plan", "--model", EXAMPLE,
             "--strategy", strategy, "--budget", "1e30"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert (done.returncode, done.stdout, done.stderr.count("\n")) == (3, "", 1)
        assert done.stderr.startswith(f"error: a plan at budget {10**30} needs")

    @pytest.mark.parametrize(
        "exc, code",
        [
            (InputError("bad input"), 2),
            (MissingWorkerCptError("w9"), 2),
            (CrowdPlanError("other failure"), 2),
            (ResourceLimitError("too many plans"), 3),
            (NumericError("posterior is NaN"), 4),
        ],
    )
    def test_error_type_picks_exit_code(self, monkeypatch, capsys, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "load_model", fail)
        rc = main(["plan", "--model", EXAMPLE, "--budget", "3"])
        assert rc == code
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_simulate_plan_length_mismatch(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        rc = main(
            ["simulate", "--model", EXAMPLE, "--plan", "1,1", "--tasks", "5", "--out", str(out)]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: plan has 2 entries for 3 paths\n"
        assert not out.exists()

    def test_bad_inject_p(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--model",
                EXAMPLE,
                "--plan",
                "1,1,1",
                "--tasks",
                "5",
                "--inject-p",
                "1.5",
                "--out",
                str(tmp_path / "v.csv"),
            ]
        )
        assert rc == 2

    def test_argparse_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--budget", "3"])
        assert exc.value.code == 2

    def test_unknown_vote_label_for_model(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        votes.write_text(
            "task_id,path_id,worker_id,vote,truth\nt1,0,,purple,\nt2,0,,no,\n"
        )
        rc = main(
            [
                "infer",
                "--model",
                EXAMPLE,
                "--votes",
                str(votes),
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 2


def write_nbi_model(path, table=((0.9, 0.1), (0.2, 0.8))):
    doc = {
        "kind": "nbi",
        "labels": {"cardinality": 2, "names": ["no", "yes"]},
        "prior": [0.5, 0.5],
        "workers": {"a": [list(row) for row in table]},
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestCliInputChecks:
    def infer(self, tmp_path, model, rows, kind):
        votes = tmp_path / "votes.csv"
        write_csv(votes, rows)
        out = tmp_path / "p.csv"
        argv = ["infer", "--model", model, "--votes", str(votes), "--model-kind", kind]
        return main(argv + ["--out", str(out)])

    @pytest.mark.parametrize("kind", ["apm", "nbap", "mv"])
    def test_path_beyond_model_exits_two(self, tmp_path, capsys, kind):
        assert self.infer(tmp_path, EXAMPLE, ["t1,5,,no,", "t2,0,,yes,"], kind) == 2
        assert "path index 5" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["apm", "nbap", "mv", "nbi"])
    def test_label_beyond_model_exits_two(self, tmp_path, capsys, kind):
        model = write_nbi_model(tmp_path / "nbi.json") if kind == "nbi" else EXAMPLE
        assert self.infer(tmp_path, model, ["t1,0,a,maybe,", "t2,0,a,no,"], kind) == 2
        assert "maybe" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["apm", "nbap", "mv", "nbi"])
    def test_label_index_beyond_model_is_input_error(self, tmp_path, kind):
        nbi = kind == "nbi"
        model = load_model(write_nbi_model(tmp_path / "nbi.json"), ("nbi",)) if nbi else (
            load_model(EXAMPLE)
        )
        task = TaskSample(task_id="t", votes={0: (("a" if nbi else None, 2),)})
        with pytest.raises(InputError, match="label 2"):
            infer(kind, model, [task])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("where", ["prior", "path_cpt", "shared_cpt"])
    def test_non_finite_model_exits_two(self, tmp_path, capsys, where, bad):
        doc = json.loads(Path(EXAMPLE).read_text())
        if where == "prior":
            doc["prior"][0] = bad
        else:
            doc["paths"][0][where][0][0] = bad
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc))
        assert main(["plan", "--model", str(model), "--budget", "9"]) == 2
        assert self.infer(tmp_path, str(model), ["t1,0,,no,"], "apm") == 2
        err = capsys.readouterr().err
        assert err.count("non-finite") == 2

    def test_non_finite_nbi_model_exits_two(self, tmp_path, capsys):
        model = write_nbi_model(tmp_path / "nbi.json", ((float("nan"), 0.5), (0.5, 0.5)))
        assert self.infer(tmp_path, model, ["t1,0,a,no,"], "nbi") == 2
        assert "non-finite" in capsys.readouterr().err


def example_doc():
    return json.loads(Path(EXAMPLE).read_text())


def labels_as_list(doc):
    doc["labels"] = [2]


def worker_cpts_as_list(doc):
    path = doc["paths"][0]
    path["worker_cpts"] = [path.pop("shared_cpt")]


def no_paths(doc):
    doc["paths"] = []


def fractional_cardinality(doc):
    doc["labels"]["cardinality"] = 2.5


def cardinality_as_text(doc):
    doc["labels"]["cardinality"] = "2"


def misnumbered_path(doc):
    doc["paths"][0]["id"] = 5


def path_without_vote_tables(doc):
    del doc["paths"][0]["shared_cpt"]


class TestCliMalformedInputs:
    """Bad files and arguments end as `error:` and exit 2, never as a traceback."""

    def votes(self, tmp_path):
        votes = tmp_path / "votes.csv"
        argv = ["simulate", "--model", EXAMPLE, "--plan", "2,2,2", "--tasks", "12"]
        assert main(argv + ["--out", str(votes)]) == 0
        return str(votes)

    def assert_input_error(self, capsys, rc, *needles):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        for needle in needles:
            assert needle in err

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (labels_as_list, "labels must be a JSON object"),
            (worker_cpts_as_list, "worker_cpts must be a JSON object"),
            (no_paths, "no access paths"),
            (fractional_cardinality, "labels.cardinality must be an integer, got 2.5"),
            (cardinality_as_text, "labels.cardinality must be an integer, got '2'"),
            (misnumbered_path, "path entry 0 has id 5"),
            (path_without_vote_tables, "path 0: neither shared_cpt nor worker_cpts present"),
        ],
    )
    def test_malformed_apm_document(self, tmp_path, capsys, mutate, needle):
        doc = example_doc()
        mutate(doc)
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc))
        rc = main(["plan", "--model", str(model), "--budget", "9"])
        self.assert_input_error(capsys, rc, needle)

    def test_model_file_that_is_not_json(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text("{not json")
        rc = main(["plan", "--model", str(model), "--budget", "9"])
        self.assert_input_error(capsys, rc, "model file is not valid JSON")

    def test_missing_votes_file(self, tmp_path, capsys):
        rc = main(["learn", "--votes", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "m")])
        self.assert_input_error(capsys, rc, "cannot read votes file")

    def test_header_field_over_the_csv_limit(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id," + "x" * 140_000 + ",worker_id,vote,truth\n")
        rc = main(["learn", "--votes", str(votes), "--out", str(tmp_path / "m.json")])
        self.assert_input_error(capsys, rc, "line 1", "field larger than field limit")

    def test_learn_nbap_needs_shared_tables(self, tmp_path, capsys):
        argv = ["learn", "--votes", self.votes(tmp_path), "--model-kind", "nbap"]
        rc = main(argv + ["--no-share-workers", "--out", str(tmp_path / "m.json")])
        self.assert_input_error(capsys, rc, "nbap requires shared worker tables")

    def test_more_folds_than_tasks(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        write_csv(votes, ["t1,0,,no,no", "t2,0,,yes,yes"])
        rc = main(
            ["sweep", "--votes", str(votes), "--budgets", "3", "--folds", "5",
             "--out", str(tmp_path / "s.csv")]
        )
        self.assert_input_error(capsys, rc, "5 folds for 2 tasks")

    @pytest.mark.parametrize(
        "budgets, needle", [("3..4..5..6", "bad budget range"), (",", "bad budget list")]
    )
    def test_sweep_rejects_bad_budgets(self, tmp_path, capsys, budgets, needle):
        rc = main(
            ["sweep", "--votes", self.votes(tmp_path), f"--budgets={budgets}",
             "--out", str(tmp_path / "s.csv")]
        )
        self.assert_input_error(capsys, rc, needle)

    def test_plan_below_the_largest_cost_has_no_bound(self, capsys):
        assert main(["plan", "--model", EXAMPLE, "--budget", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["bound"] is None

    def test_nbi_workers_as_list(self, tmp_path, capsys):
        doc = {"kind": "nbi", "labels": {"cardinality": 2}, "prior": [0.5, 0.5], "workers": [[1]]}
        model = tmp_path / "nbi.json"
        model.write_text(json.dumps(doc))
        votes = tmp_path / "votes.csv"
        write_csv(votes, ["t1,0,a,0,", "t2,0,a,1,"])
        rc = main(
            ["infer", "--model", str(model), "--votes", str(votes), "--model-kind", "nbi",
             "--out", str(tmp_path / "p.csv")]
        )
        self.assert_input_error(capsys, rc, "workers must be a JSON object")

    def test_learn_on_invalid_utf8(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        votes.write_bytes(b"task_id,path_id,worker_id,vote,truth\nt1,0,,n\xffo,\nt2,0,,yes,\n")
        rc = main(["learn", "--votes", str(votes), "--out", str(tmp_path / "m.json")])
        self.assert_input_error(capsys, rc, "line 2", "not valid UTF-8")

    @pytest.mark.parametrize("costs", ["0,1,1", "-1,1,1"])
    def test_learn_rejects_non_positive_costs(self, tmp_path, capsys, costs):
        out = tmp_path / "m.json"
        rc = main(["learn", "--votes", self.votes(tmp_path), f"--costs={costs}", "--out", str(out)])
        self.assert_input_error(capsys, rc, "non-positive cost")
        assert not out.exists()

    @pytest.mark.parametrize("costs", ["0,1,1", "-1,1,1"])
    def test_sweep_rejects_non_positive_costs(self, tmp_path, capsys, costs):
        rc = main(
            ["sweep", "--votes", self.votes(tmp_path), "--budgets", "3", "--folds", "2",
             f"--costs={costs}", "--out", str(tmp_path / "s.csv")]
        )
        self.assert_input_error(capsys, rc, "non-positive cost")

    @pytest.mark.parametrize(
        "flag, what", [("--models", "model kind"), ("--strategies", "strategy")]
    )
    def test_sweep_names_unknown_choice(self, tmp_path, capsys, flag, what):
        rc = main(
            ["sweep", "--votes", self.votes(tmp_path), "--budgets", "3", flag, "bogus",
             "--out", str(tmp_path / "s.csv")]
        )
        self.assert_input_error(capsys, rc, f"unknown {what} 'bogus'")

    def test_save_model_to_a_directory_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError, match=re.escape(f"cannot write {tmp_path}")):
            save_model(load_model(EXAMPLE), str(tmp_path))

    def test_write_votes_csv_to_a_directory_is_an_input_error(self, tmp_path):
        data = generate(sym_model([0.5, 0.5], [0.9], [0.8]), [2], 3, seed=1)
        with pytest.raises(InputError, match=re.escape(f"cannot write {tmp_path}")):
            write_votes_csv(data, str(tmp_path))

    def test_unwritable_outputs(self, tmp_path, capsys):
        votes = self.votes(tmp_path)
        capsys.readouterr()
        out = str(tmp_path / "missing" / "x")
        commands = [
            ["learn", "--votes", votes],
            ["simulate", "--model", EXAMPLE, "--plan", "1,1,1", "--tasks", "3"],
            ["infer", "--model", EXAMPLE, "--votes", votes],
            ["sweep", "--votes", votes, "--budgets", "3", "--models", "mv", "--folds", "2"],
        ]
        for argv in commands:
            for target in (out, str(tmp_path)):  # a missing directory, or a directory
                rc = main(argv + ["--out", target])
                self.assert_input_error(capsys, rc, f"cannot write {target}")
