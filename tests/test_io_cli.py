import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from crowdplan.cli import _threads, main
from crowdplan.errors import InputError
from crowdplan.inference import infer
from crowdplan.io import parse_budgets, parse_int_list, read_votes_csv, write_votes_csv
from crowdplan.model import Dataset, TaskSample, load_model, save_model
from crowdplan.simulator import generate

from _oracles import sym_model

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

    def test_threads_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _threads(64) == 3
        assert _threads(2) == 2
        assert _threads(0) == 1
        monkeypatch.setenv("CROWDPLAN_THREADS", "64")
        assert _threads(None) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _threads(None) == 1


class TestCliDeterminism:
    def run_simulate(self, tmp_path, name, threads, inject="0.3"):
        out = tmp_path / name
        argv = [
            "simulate",
            "--model",
            EXAMPLE,
            "--plan",
            "3,2,2",
            "--tasks",
            "80",
            "--seed",
            "9",
            "--inject-p",
            inject,
            "--out",
            str(out),
        ]
        if threads is not None:
            argv += ["--threads", str(threads)]
        rc = main(argv)
        assert rc == 0
        return out.read_bytes()

    def test_simulate_threads_byte_identical(self, tmp_path):
        assert self.run_simulate(tmp_path, "a.csv", 1) == self.run_simulate(
            tmp_path, "b.csv", 8
        )

    def test_sampled_plan_threads_byte_identical(self, tmp_path, capsys):
        outs = []
        for threads in (1, 8):
            rc = main(
                [
                    "plan",
                    "--model",
                    EXAMPLE,
                    "--budget",
                    "12",
                    "--ig",
                    "sampled",
                    "--samples",
                    "16384",
                    "--seed",
                    "2",
                    "--threads",
                    str(threads),
                ]
            )
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_env_var_sets_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CROWDPLAN_THREADS", "8")
        with_env = self.run_simulate(tmp_path, "env.csv", None)
        monkeypatch.delenv("CROWDPLAN_THREADS")
        assert with_env == self.run_simulate(tmp_path, "plain.csv", None)
