"""Byte-identity of a fixed CLI session against pinned digests.

Every output of a small seeded session is hashed: simulate with correlation
injected, learn three ways, infer five ways and a four-model sweep. The
digests were taken before the dataset layer became columnar, so a change that
moves any byte of any output fails here, not only one that breaks a rerun.
The sweep digests were taken again when plan execution began keeping the
votes of each group's smallest raw words, which moved only the accuracy and
NLL columns. Every digest of an output that reads a random stream (simulate,
the learns, the infers of learned models, rnd and sampled plans, the sweeps)
was taken again when stream keys became BLAKE2b digests and sampled IG gave
each path its own stream; the other digests did not move. The digests of
fits, posteriors, exact `ig` values and sweep metrics were taken again when
numpy's own sums and `einsum` replaced the in-order label and task sums and
log-factorials came from `math.lgamma`: only last digits moved, no plan,
fit report or prediction. The digests of fits, posteriors, exact `ig`
values, rnd plans and sweep metrics were taken again when one scaled
normaliser began to build every path factor and posterior: only last
digits moved, no plan, fit report or prediction. The digests of outputs a
sampled greedy step decides were taken again when a sampled greedy search
came to run on one fixed sample, under the caller's seed at every step.
The sweep digests were taken again when plan execution's words came from
one SplitMix64 mix instead of a Philox stream per task, which moved only
the accuracy and NLL columns.

The votes file is written by this test from a fixed seed. It is ragged (0 to
4 votes per path) and per worker, its tasks are not in id order, truth sits on
some rows of a task only, and each path's votes are stored in descending
worker-id order. Stored order and the canonical worker-id order therefore
differ in every path with two or more votes; plan execution, correlation
injection and writing must follow the stored one.
"""

from __future__ import annotations

import csv
import hashlib
import json
from importlib.resources import files

import numpy as np

from crowdplan.cli import main

EXAMPLE = str(files("crowdplan") / "data" / "example_model.json")
EM = ("--max-iters", "15", "--restarts", "2", "--seed", "3")

# (name, argv with {d} for the working directory, output file)
SESSION = (
    ("simulate", ("simulate", "--model", EXAMPLE, "--plan", "3,2,3", "--tasks", "60",
                  "--inject-p", "0.4", "--seed", "5", "--out", "{d}/sim.csv"), "sim.csv"),
    ("learn.apm", ("learn", "--votes", "{d}/votes.csv", *EM, "--out", "{d}/apm.json"), "apm.json"),
    ("learn.pw", ("learn", "--votes", "{d}/votes.csv", "--no-share-workers", *EM,
                  "--out", "{d}/pw.json"), "pw.json"),
    ("learn.nbi", ("learn", "--votes", "{d}/votes.csv", "--model-kind", "nbi", *EM,
                   "--out", "{d}/nbi.json"), "nbi.json"),
    ("infer.apm", ("infer", "--model", "{d}/apm.json", "--votes", "{d}/votes.csv",
                   "--model-kind", "apm", "--out", "{d}/i_apm.csv"), "i_apm.csv"),
    ("infer.nbap", ("infer", "--model", "{d}/apm.json", "--votes", "{d}/votes.csv",
                    "--model-kind", "nbap", "--out", "{d}/i_nbap.csv"), "i_nbap.csv"),
    ("infer.mv", ("infer", "--model", "{d}/apm.json", "--votes", "{d}/votes.csv",
                  "--model-kind", "mv", "--out", "{d}/i_mv.csv"), "i_mv.csv"),
    ("infer.nbi", ("infer", "--model", "{d}/nbi.json", "--votes", "{d}/votes.csv",
                   "--model-kind", "nbi", "--out", "{d}/i_nbi.csv"), "i_nbi.csv"),
    ("infer.pw", ("infer", "--model", "{d}/pw.json", "--votes", "{d}/votes.csv",
                  "--model-kind", "apm", "--out", "{d}/i_pw.csv"), "i_pw.csv"),
    ("sweep", ("sweep", "--votes", "{d}/votes.csv", "--models", "apm,nbap,mv,nbi",
               "--strategies", "greedy,equal", "--budgets", "4,9", "--folds", "3",
               "--costs", "1,2,3", "--max-iters", "10", "--restarts", "1", "--seed", "3",
               "--out", "{d}/sweep.csv"), "sweep.csv"),
)

# sha256 of (stdout with the directory replaced by "<d>", output file bytes).
# learn.apm, infer.apm, infer.nbap, infer.nbi and sweep were pinned again when
# EM and inference came to sum label entries (m log p once for m equal votes,
# nbi's and nbap's log prior after the votes); the per-worker steps kept theirs.
PINNED = {
    "votes.csv": "7e2ea72e44827c5a779b862e7466fb5e5f7ea6817d065480195394b721260ca3",
    "simulate": "8a9669e0a126887a933ff5eef3f1b098f6403bdf73406281524ba1d3fc084667",
    "learn.apm": "04f538a642b417596e2988164893edc8f9ecd770b061c52bf4a26f771584dd30",
    "learn.pw": "1beb8166712515be2f42afcbc8a0297e1baf70a2c18606286cbc2532517e62b6",
    "learn.nbi": "b8ea5687a510d7a3556d1e1284a37a2032ae9ec9d7e6518bae8dc2c5e66fd9ab",
    "infer.apm": "529d26a57c9846fc2275237a59f12f0ee75270e2790445cb11d8162b4d5d2963",
    "infer.nbap": "29d156dada87130312d9c15637b55c904c3346b9af9df78a6da0fbf320dfb187",
    "infer.mv": "c83647b9879bbe729f4a7c1c1a598bce954d78dcb7878f5926ebdb286ae1f72d",
    "infer.nbi": "a7175a9a8951f3ad15fcc6e4e629fce09243f30131d89eec68d9335930b1a33f",
    "infer.pw": "cff187eb2a326b2891762b944ca324d64b0ada2a2a00f8d7bc1a315d42d309f9",
    "sweep": "1471d16b59bfde7d8abae47770471f7d50f80522aa77075be798d2447c0cb8c0",
}


def ragged_votes(seed: int = 2024, num_tasks: int = 90) -> list[list[str]]:
    """Rows of a labeled per-worker votes file; see the module docstring."""
    rng = np.random.default_rng(seed)
    pools = [[f"p{i}w{j}" for j in range(7)] for i in range(3)]
    accuracy = rng.uniform(0.6, 0.9, size=(3, 7))
    ids = [f"task{n:03d}" for n in rng.permutation(num_tasks)]
    rows = []
    for t, task in enumerate(ids):
        y = int(rng.random() < 0.4)
        votes = []
        for i in range(3):
            path = []
            for j in rng.choice(7, size=int(rng.integers(0, 5)), replace=False):
                right = rng.random() < accuracy[i, j]
                worker = f"p{i}x{t}-{j}" if rng.random() < 0.05 else pools[i][j]
                path.append([task, str(i), worker, ("no", "yes")[y if right else 1 - y]])
            votes.extend(sorted(path, key=lambda row: row[2], reverse=True))
        if not votes:
            votes.append([task, "0", pools[0][0], ("no", "yes")[y]])
        for k, vote in enumerate(votes):
            vote.append(("no", "yes")[y] if k == 0 or rng.random() < 0.3 else "")
        rows.extend(votes)
    return rows


def _digest(stdout: str, out) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    h.update(b"\0")
    h.update(out.read_bytes())
    return h.hexdigest()


def test_votes_file_stores_paths_out_of_worker_order():
    groups: dict[tuple[str, str], list[str]] = {}
    for task, path, worker, _, _ in ragged_votes():
        groups.setdefault((task, path), []).append(worker)
    multi = [ws for ws in groups.values() if len(ws) > 1]
    assert len(multi) > 100
    assert all(ws != sorted(ws) for ws in multi)


def _session_digests(tmp_path, capsys, rows, session) -> dict[str, str]:
    """Write `rows` as {d}/votes.csv, run `session` and digest each step as in PINNED."""
    votes = tmp_path / "votes.csv"
    with open(votes, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id", "path_id", "worker_id", "vote", "truth"])
        writer.writerows(rows)
    got = {"votes.csv": hashlib.sha256(votes.read_bytes()).hexdigest()}
    for name, argv, out in session:
        capsys.readouterr()
        rc = main([a.replace("{d}", str(tmp_path)) for a in argv])
        stdout = capsys.readouterr().out.replace(str(tmp_path), "<d>")
        assert rc == 0, name
        got[name] = _digest(stdout, tmp_path / out)
    return got


def test_cli_session_is_byte_identical_to_pinned(tmp_path, capsys):
    assert _session_digests(tmp_path, capsys, ragged_votes(), SESSION) == PINNED


# The session after its simulate step, on a four-label votes file: every label
# and state axis is K = 4 long, where the rest of this file has K = 2. The
# learn steps read the file with its truths blanked, so EM infers every outcome.
FOUR_LABELS = ("ant", "bee", "cat", "dog")
FOUR_LABEL_SESSION = tuple(
    (name, tuple(a.replace("votes.csv", "open.csv") for a in argv), out)
    if name.startswith("learn") else (name, argv, out)
    for name, argv, out in SESSION[1:]
)

# sha256 as in PINNED, taken before the kernels put the task axis last; its
# stream-reading entries again when stream keys became BLAKE2b digests; all
# but votes.csv, learn.pw, infer.mv and infer.pw again when EM and inference
# came to sum label entries.
FOUR_LABEL_PINNED = {
    "votes.csv": "e6d07e59fb9c4e7b80e3ce1aef718d4a2c4b741d22260619d69266924c1e76c3",
    "learn.apm": "fd83d0f2ac35c198da5e44dee3ba221e87f6adc006edc06ce60d58358aa1c421",
    "learn.pw": "52344310e6cb7822d95fdbdb4d9cd44e9a6bc12ccd934328a65aa10cd15e16ba",
    "learn.nbi": "fe469c27600524f889af1593f584ed12cb9262413b230bc906b5dd50e38f5220",
    "infer.apm": "c9d6793ea7b433feaeb3e3bd6709a68a2c07908d87bdf6a644977248790a2b8f",
    "infer.nbap": "3ce8e8c6001233c99642e9ac74945f2f80dac17bd0ca6a31f2995434e3093a5b",
    "infer.mv": "9b09448d2cd9b0933d337cedb7ef744fd6cc8796426ab595162bdaf609e89151",
    "infer.nbi": "3c73487d3ca678b51d8367f935da1bf1a4f575502633b4e108dd9bb9629c090c",
    "infer.pw": "865a0842bc4fffa11bf39a4cff291aae180fe57f5649979fcdff1d03f0a52188",
    "sweep": "952e3c6c3308181fc184705c3896c6de623b44f4ae67dfa53f273871bafd1d65",
}


def four_label_votes(seed: int = 404, num_tasks: int = 80) -> list[list[str]]:
    """Rows of a labeled per-worker votes file over four labels, ragged as
    `ragged_votes`: 0 to 4 votes per path, a few one-off workers, and truth on
    each task's first row and on some others."""
    rng = np.random.default_rng(seed)
    pools = [[f"p{i}w{j}" for j in range(6)] for i in range(3)]
    accuracy = rng.uniform(0.45, 0.85, size=(3, 6))
    ids = [f"task{n:03d}" for n in rng.permutation(num_tasks)]
    rows = []
    for t, task in enumerate(ids):
        y = int(rng.choice(4, p=[0.4, 0.3, 0.2, 0.1]))
        votes = []
        for i in range(3):
            for j in rng.choice(6, size=int(rng.integers(0, 5)), replace=False):
                label = y if rng.random() < accuracy[i, j] else int(rng.integers(4))
                worker = f"p{i}x{t}-{j}" if rng.random() < 0.05 else pools[i][j]
                votes.append([task, str(i), worker, FOUR_LABELS[label]])
        if not votes:
            votes.append([task, "0", pools[0][0], FOUR_LABELS[y]])
        for k, vote in enumerate(votes):
            vote.append(FOUR_LABELS[y] if k == 0 or rng.random() < 0.3 else "")
        rows.extend(votes)
    return rows


def test_four_label_session_is_byte_identical_to_pinned(tmp_path, capsys):
    rows = four_label_votes()
    with open(tmp_path / "open.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id", "path_id", "worker_id", "vote", "truth"])
        writer.writerows(row[:4] + [""] for row in rows)
    got = _session_digests(tmp_path, capsys, rows, FOUR_LABEL_SESSION)
    assert got == FOUR_LABEL_PINNED


# A per-worker K=3 model whose tables hold zero entries. The simulate plan
# skips path 1 and puts more votes on paths 0 and 2 than they have workers, so
# worker assignment wraps round-robin.
PER_WORKER_MODEL = {
    "kind": "apm",
    "labels": {"cardinality": 3},
    "prior": [0.2, 0.5, 0.3],
    "paths": [
        {"id": 0, "cost": "1", "path_cpt": [[0.8, 0.2, 0.0], [0.1, 0.7, 0.2], [0.0, 0.3, 0.7]],
         "worker_cpts": {
             "c": [[0.6, 0.4, 0.0], [0.2, 0.6, 0.2], [0.1, 0.1, 0.8]],
             "a": [[0.9, 0.05, 0.05], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]],
             "b": [[0.5, 0.5, 0.0], [0.3, 0.4, 0.3], [0.0, 0.2, 0.8]]}},
        {"id": 1, "cost": "2", "path_cpt": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
         "shared_cpt": [[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]]},
        {"id": 2, "cost": "3", "path_cpt": [[0.6, 0.3, 0.1], [0.0, 0.9, 0.1], [0.2, 0.0, 0.8]],
         "worker_cpts": {
             "y": [[0.0, 0.5, 0.5], [0.1, 0.8, 0.1], [0.3, 0.0, 0.7]],
             "x": [[0.95, 0.05, 0.0], [0.2, 0.6, 0.2], [0.0, 0.1, 0.9]]}},
    ],
}
# sha256 as in PINNED, taken before generation and injection were batched and
# again when stream keys became BLAKE2b digests.
PER_WORKER_SIMULATE = "da77e735da9d07d85f12d2383a5c53c6524684fe1bc3b6d41a408f1b15cd16d2"


def test_per_worker_simulate_is_byte_identical_to_pinned(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(PER_WORKER_MODEL), encoding="utf-8")
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--model", str(model), "--plan", "5,0,4", "--tasks", "80",
               "--inject-p", "0.5", "--seed", "7", "--out", str(out)])
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<d>")
    assert rc == 0
    assert _digest(stdout, out) == PER_WORKER_SIMULATE


# `plan` on the bundled model (costs 2, 3, 4): every strategy at budgets that
# leave nothing affordable (0, 1 — `best` included), a fractional budget, and
# two that buy several votes; then greedy at 30 under each IG mode.
PLAN_REQUESTS = tuple(
    (f"{strategy}@{budget}", ("--strategy", strategy, "--budget", budget))
    for strategy in ("greedy", "opt", "best", "equal", "rnd")
    for budget in ("0", "1", "7/2", "9", "30")
) + (
    ("greedy@30.exact", ("--budget", "30", "--ig", "exact")),
    ("greedy@30.auto", ("--budget", "30", "--ig", "auto")),
    ("greedy@30.sampled", ("--budget", "30", "--ig", "sampled", "--samples", "500")),
)

# sha256 of "<exit code>\0<stdout>\0<stderr>" of `plan --model EXAMPLE ...`, taken
# before greedy's step estimator and the plan result got one builder each.
# The entries of plans scored in exact mode were taken again when exact IG
# became H(C) - H(C | Y): only the last digits of "ig" moved, no plan. The rnd
# and sampled entries were taken again when stream keys became BLAKE2b digests,
# and "greedy@30.sampled" again when a sampled greedy search came to run on one
# fixed sample (the plan went [1, 4, 4] -> [2, 3, 4]).
PLAN_PINNED = {
    "greedy@0": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "greedy@1": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "greedy@7/2": "dee4fa8204b2c554ca0d749ae3dad957039f839568d2c1037d36339120244263",
    "greedy@9": "a7ab5fc9a517152d14061114182e2985af8180e7295d107e91cbfec2e983f60b",
    "greedy@30": "5efd5d4278a03e58b3ccb9fe7a8f0b34cb0b352b9b69eb18a427f7e5994a2eb4",
    "opt@0": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "opt@1": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "opt@7/2": "dee4fa8204b2c554ca0d749ae3dad957039f839568d2c1037d36339120244263",
    "opt@9": "a7ab5fc9a517152d14061114182e2985af8180e7295d107e91cbfec2e983f60b",
    "opt@30": "5efd5d4278a03e58b3ccb9fe7a8f0b34cb0b352b9b69eb18a427f7e5994a2eb4",
    "best@0": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "best@1": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "best@7/2": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "best@9": "294eb082d2eb61459baa8a4f662e9bf2488ae140ae32287cd9329ec4becf3519",
    "best@30": "1dc4dbc05fb155d74f2f3fa91442d19525a39446ddf928e6e83273cf85257efb",
    "equal@0": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "equal@1": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "equal@7/2": "f364cde7f0c74b1eb3bb52a2213c2fd3d30d054ff06d3f48b71d7d3cffb20b03",
    "equal@9": "a7ab5fc9a517152d14061114182e2985af8180e7295d107e91cbfec2e983f60b",
    "equal@30": "72b0271043c19d4f9a222902233e066f27cec3a8c6979f4734dcb098d4db6bed",
    "rnd@0": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "rnd@1": "9a8e4a847d50dc1373a0662813cafd62e7e01401ac5210b0154b608db8528aeb",
    "rnd@7/2": "dee4fa8204b2c554ca0d749ae3dad957039f839568d2c1037d36339120244263",
    "rnd@9": "1f6301939a7a87c63de0f8cc31a89dd9b10f4410502805e9002919db02a74f76",
    "rnd@30": "b9f5376633e1b1cb8fbd3bb2345d90b9afbae586c8d6cca4cb21a59d655bbb50",
    "greedy@30.exact": "5efd5d4278a03e58b3ccb9fe7a8f0b34cb0b352b9b69eb18a427f7e5994a2eb4",
    "greedy@30.auto": "5efd5d4278a03e58b3ccb9fe7a8f0b34cb0b352b9b69eb18a427f7e5994a2eb4",
    "greedy@30.sampled": "83cdde228f2eb8f1b4030dbc59ce54bbe971106142820cad4ac2f1a5cb5cecd8",
}


def test_plan_requests_are_byte_identical_to_pinned(capsys):
    got = {}
    for name, argv in PLAN_REQUESTS:
        capsys.readouterr()
        rc = main(["plan", "--model", EXAMPLE, *argv])
        out, err = capsys.readouterr()
        got[name] = hashlib.sha256(f"{rc}\0{out}\0{err}".encode("utf-8")).hexdigest()
    assert got == PLAN_PINNED


# A sweep over every strategy in each IG mode: pins `rnd`'s per-cell seeds,
# `best` and `opt` inside a sweep, and greedy's sampled steps (--ig sampled).
SWEEP_ALL = ("sweep", "--votes", "{d}/votes.csv", "--models", "apm,mv",
             "--strategies", "greedy,equal,rnd,best,opt", "--budgets", "4,9", "--folds", "2",
             "--costs", "1,2,3", "--samples", "300", "--max-iters", "10", "--restarts", "1",
             "--seed", "3", "--out", "{d}/sweep.csv")

# sha256 of "<exit code>\0<stdout>\0<output file>". Its plans were pinned before
# greedy, equal and rnd shared one purchase loop; its metrics since plan
# execution keeps the votes of each group's smallest raw words; all three
# again when stream keys became BLAKE2b digests; "sampled" again when a sampled
# greedy search came to run on one fixed sample; all three again when plan
# execution's words came from one SplitMix64 mix, and when EM and inference
# came to sum label entries.
SWEEP_ALL_PINNED = {
    "auto": "52dff62970131416405a1eccc9cdf00068b965dfe46075a0eb61a67c5e829339",
    "exact": "52dff62970131416405a1eccc9cdf00068b965dfe46075a0eb61a67c5e829339",
    "sampled": "1ef2b022d1097b9890d724938d5953ec6b8610f0ff85926e5156bda6f8894740",
}


def test_sweep_over_every_strategy_and_ig_mode_is_byte_identical_to_pinned(tmp_path, capsys):
    votes = tmp_path / "votes.csv"
    with open(votes, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id", "path_id", "worker_id", "vote", "truth"])
        writer.writerows(ragged_votes(seed=11, num_tasks=60))
    got = {}
    for mode in SWEEP_ALL_PINNED:
        capsys.readouterr()
        rc = main([a.replace("{d}", str(tmp_path)) for a in SWEEP_ALL] + ["--ig", mode])
        stdout = capsys.readouterr().out.replace(str(tmp_path), "<d>")
        h = hashlib.sha256(f"{rc}\0{stdout}\0".encode("utf-8"))
        h.update((tmp_path / "sweep.csv").read_bytes())
        got[mode] = h.hexdigest()
    assert got == SWEEP_ALL_PINNED


def _peaked_rows(diag):
    """K=4 rows with the given diagonal; the rest of row r split 3:2:1 in column order."""
    rows = []
    for r, d in enumerate(diag):
        rest = [(1 - d) * share / 6 for share in (3, 2, 1)]
        rows.append(rest[:r] + [d] + rest[r:])
    return rows


# A wide K=4 model: 5 shared-table paths with costs 1,2,2,3,4. Exact greedy at
# B=26 scores enumerations of up to a few hundred thousand count vectors, and
# auto greedy at B=40 takes sampled steps on 2,000 draws, so these requests
# reach the code paths that the bundled model's small plans never do.
WIDE_MODEL = {
    "kind": "apm",
    "labels": {"cardinality": 4},
    "prior": [0.24, 0.26, 0.27, 0.23],
    "paths": [
        {"id": i, "cost": cost, "path_cpt": _peaked_rows(path_diag),
         "shared_cpt": _peaked_rows(worker_diag)}
        for i, (cost, path_diag, worker_diag) in enumerate((
            ("1", (0.62, 0.64, 0.61, 0.63), (0.60, 0.61, 0.59, 0.62)),
            ("2", (0.70, 0.71, 0.69, 0.72), (0.68, 0.67, 0.69, 0.68)),
            ("2", (0.74, 0.73, 0.75, 0.74), (0.72, 0.73, 0.71, 0.72)),
            ("3", (0.80, 0.81, 0.79, 0.80), (0.78, 0.77, 0.79, 0.78)),
            ("4", (0.86, 0.85, 0.87, 0.86), (0.84, 0.85, 0.83, 0.84)),
        ))
    ],
}
WIDE_REQUESTS = (
    ("greedy@26.exact", ("--budget", "26", "--ig", "exact")),
    ("greedy@40.auto", ("--budget", "40", "--samples", "2000", "--seed", "0")),
)
# sha256 as in PLAN_PINNED, taken before exact enumerations were scored in row
# blocks and sampled path tables were gathered from the exact memo.
# "greedy@26.exact" was taken again when exact IG became H(C) - H(C | Y): only
# the last digits of "ig" moved, not the plan. "greedy@40.auto" was taken
# again when stream keys became BLAKE2b digests, and again when a sampled greedy
# search came to run on one fixed sample (plan [5, 3, 4, 3, 3] -> [3, 3, 5, 3, 3]).
WIDE_PINNED = {
    "greedy@26.exact": "faba9db920d29f4d308f90998da24d289167601d7ec125c073b01f3b7e9c55d6",
    "greedy@40.auto": "d57f3a7793d08a14472a78c210077cad29a28487f9ae7a0ed585bf58224b0ec2",
}


def test_wide_plan_requests_are_byte_identical_to_pinned(tmp_path, capsys):
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(WIDE_MODEL), encoding="utf-8")
    got = {}
    for name, argv in WIDE_REQUESTS:
        capsys.readouterr()
        rc = main(["plan", "--model", str(model), *argv])
        out, err = capsys.readouterr()
        got[name] = hashlib.sha256(f"{rc}\0{out}\0{err}".encode("utf-8")).hexdigest()
    assert got == WIDE_PINNED
