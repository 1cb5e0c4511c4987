"""Each planning input is checked once, by the type or function that takes it in.

Costs are checked by `AccessPathSpec`, plan counts by `AccessPlan`, budgets by
the planner, config fields by their config types and seeds where every stream
key is folded. A bad value is an InputError; a good one is kept exactly, never
truncated or rounded.
"""

import math
import operator
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdplan.evaluation as evaluation
from crowdplan.cli import main
from crowdplan.errors import InputError, ResourceLimitError
from crowdplan.evaluation import budget_sweep
from crowdplan.inference import table_log_joint
from crowdplan.io import read_votes_csv
from crowdplan.infogain import (
    IgConfig,
    IgMode,
    check_submodularity,
    information_gain,
    prior_entropy,
    sampled_conditional_entropies,
)
from crowdplan.learning import EmConfig, fit_em, fit_nbi
from crowdplan.model import (
    MAX_CELLS,
    AccessPathSpec,
    AccessPlan,
    Cpt,
    Dataset,
    LabelSpace,
    NbiModel,
    TaskSample,
    model_from_dict,
    model_to_dict,
    validate_model,
    with_costs,
    with_labels,
)
from crowdplan.planner import baseline_plan, build_plan, greedy_plan
from crowdplan.simulator import generate, inject_correlation, quantile_paths

from _oracles import records_of, sym_model, table_of

MODEL = sym_model([0.6, 0.4], [0.9, 0.8, 0.7], [0.85, 0.8, 0.75], costs=[1, 2, "1/2"])
EXACT = IgConfig(mode=IgMode.EXACT)
SAMPLE = TaskSample("t", {0: ((None, 0), (None, 1), (None, 0)), 1: ((None, 1),) * 3})
SAMPLE_TABLE = table_of([SAMPLE], 2, 2)


def execute(counts, seed=0) -> tuple[np.ndarray, bool]:
    """The mask of SAMPLE's votes that one plan buys, and whether it short-fills SAMPLE."""
    bought, short = evaluation._execute(SAMPLE_TABLE, [AccessPlan(counts)], [seed])
    return bought, bool(short[0])


@pytest.mark.parametrize(
    "cost, needle",
    [
        ("x", "bad cost 'x'"),
        (math.inf, "bad cost inf"),
        (math.nan, "bad cost nan"),
        (None, "bad cost None"),
        ("1/0", "bad cost '1/0'"),
        (-1, "non-positive cost -1"),
        ("-1/2", "non-positive cost -1/2"),
    ],
)
def test_access_path_spec_rejects_bad_costs(cost, needle):
    with pytest.raises(InputError, match=re.escape(f"path 3: {needle}")):
        AccessPathSpec(index=3, cost=cost)


def test_model_file_cost_error_names_the_path():
    doc = model_to_dict(MODEL)
    doc["paths"][1]["cost"] = "abc"
    with pytest.raises(InputError, match="path 1: bad cost 'abc'"):
        model_from_dict(doc)


@pytest.mark.parametrize("counts", [(1.7, 0), ("2", 0), (Fraction(2), 0)])
def test_plan_counts_must_be_integers(counts):
    with pytest.raises(InputError, match="plan count must be an integer"):
        AccessPlan(counts)


@pytest.mark.parametrize("plan", [[-1, 1], [1.7, 1]])
def test_executed_plan_counts_are_checked(plan):
    with pytest.raises(InputError, match="plan count"):
        execute(plan)


def test_executed_plan_seed_is_checked_when_nothing_is_drawn():
    with pytest.raises(InputError, match="a seed must be an int or a str, got 1.5"):
        execute([0, 0], seed=1.5)


@pytest.mark.parametrize("count", [2**31, 2**32, 2**63, 2**64])
def test_huge_executed_plan_counts_short_fill(count):
    bought, short = execute([count, 1])
    assert bought[SAMPLE_TABLE.path_idx == 0].all()
    assert np.count_nonzero(bought[SAMPLE_TABLE.path_idx == 1]) == 1
    assert short


def test_path_outside_the_executed_plan():
    with pytest.raises(InputError, match="task t: path index 1 outside 0..0"):
        table_of([SAMPLE], 1, 2)


def test_fractional_plan_is_not_scored_as_truncated():
    with pytest.raises(InputError, match="plan count"):
        information_gain(MODEL, [1.5, 0, 0])


@pytest.mark.parametrize("votes", [{0.5: ((None, 1),)}, {0: ((None, 1.7),)}])
def test_task_sample_ids_must_be_integers(votes):
    with pytest.raises(InputError, match="task t: path ids and labels must be integers"):
        TaskSample("t", votes)


@pytest.mark.parametrize("truth, needle", [(1.7, "an integer, got 1.7"), (-1, ">= 0, got -1")])
def test_task_sample_truth_must_be_a_label_index(truth, needle):
    with pytest.raises(InputError, match=re.escape(f"task t: truth must be {needle}")):
        TaskSample("t", {0: ((None, 1),)}, truth=truth)


@pytest.mark.parametrize("column", ["truth", "task", "path", "worker", "label"])
def test_tabulate_rejects_fractional_columns(column):
    columns = dict(truth=[1], task=[0], path=[0], worker=[0], label=[1])
    columns[column] = [0.9]
    with pytest.raises(InputError, match=f"{column} column must hold integers, got dtype float64"):
        Dataset.tabulate(["t"], **columns, worker_ids=[None], num_labels=2)


@pytest.mark.parametrize(
    "change, needle",
    [
        (dict(task=[-1, -1]), "task column: index -1 outside 0..1"),
        (dict(task=[0, 2]), "task column: index 2 outside 0..1"),
        (dict(worker=[-1, 0]), "worker column: index -1 outside 0..0"),
        (dict(worker=[0, 1]), "worker column: index 1 outside 0..0"),
        (dict(truth=[-1]), "truth column has 1 entries, expected 2"),
        (dict(path=[0]), "path column has 1 entries, expected 2"),
        (dict(label=[0, 1, 1]), "label column has 3 entries, expected 2"),
        (dict(num_labels=2.5), "num_labels must be an integer, got 2.5"),
        (dict(num_labels=0), "num_labels must be >= 1, got 0"),
        (dict(num_paths=2.5), "num_paths must be an integer, got 2.5"),
        (dict(num_paths=-1), "num_paths must be >= 0, got -1"),
    ],
    ids=["negative-task", "task-past-end", "negative-worker", "worker-past-end",
         "short-truth", "short-path", "long-label", "fractional-labels", "no-labels",
         "fractional-paths", "negative-paths"],
)
def test_tabulate_checks_index_columns(change, needle):
    """A bad index or layout count is named, never wrapped to the last task
    or worker id, nor truncated."""
    columns = dict(truth=[-1, -1], task=[0, 1], path=[0, 0], worker=[0, 0], label=[0, 1])
    columns.update(num_labels=2)
    columns.update(change)
    with pytest.raises(InputError, match=re.escape(needle)):
        Dataset.tabulate(["a", "b"], **columns, worker_ids=["w"])


def test_tabulate_takes_empty_columns():
    data = Dataset.tabulate(["t"], [1], [], [], [], [], [], 2)
    assert records_of(data) == (TaskSample("t", {}, truth=1),)


@pytest.mark.parametrize(
    "make",
    [
        lambda: EmConfig(max_iters=2.5),
        lambda: EmConfig(restarts=2.5),
        lambda: EmConfig(smoothing_alpha=math.inf),
        lambda: IgConfig(num_samples=2.5),
        lambda: IgConfig(seed=1.5),
        lambda: IgConfig(seed=[1]),
        lambda: EmConfig(seed=1.5),
        lambda: EmConfig(rel_tol="a"),
        lambda: EmConfig(rel_tol=[1]),
        lambda: EmConfig(smoothing_alpha="a"),
        lambda: EmConfig(smoothing_alpha=None),
    ],
    ids=["max_iters", "restarts", "alpha", "num_samples", "ig_seed", "ig_seed_list", "em_seed",
         "rel_tol_str", "rel_tol_list", "alpha_str", "alpha_none"],
)
def test_config_fields_are_checked_on_construction(make):
    with pytest.raises(InputError):
        make()


@pytest.mark.parametrize(
    "call",
    [
        lambda: fit_em(generate(MODEL, [1, 1, 1], 4), cfg=5),
        lambda: fit_nbi(generate(MODEL, [1, 1, 1], 4), cfg="x"),
        lambda: budget_sweep(generate(MODEL, [1, 1, 1], 4), ["mv"], ["equal"], [2], em_cfg=5),
        lambda: budget_sweep(generate(MODEL, [1, 1, 1], 4), ["mv"], ["equal"], [2], ig_cfg=5),
        lambda: fit_em(generate(MODEL, [1, 1, 1], 4), cfg=0),
        lambda: greedy_plan(MODEL, 3, ig_cfg=5),
        lambda: baseline_plan("equal", MODEL, 3, ig_cfg=""),
        lambda: information_gain(MODEL, [1, 1, 1], EmConfig()),
    ],
    ids=["fit_em", "fit_nbi", "sweep_em_cfg", "sweep_ig_cfg", "fit_em_falsy", "greedy_ig_cfg",
         "baseline_ig_cfg_falsy", "information_gain_em_config"],
)
def test_configs_must_be_their_config_type_or_none(call):
    """None gives the default config; any other value that is not one is an InputError."""
    with pytest.raises(InputError, match=r"expected a (Em|Ig)Config or None, got"):
        call()


def test_build_plan_checks_its_config_for_a_strategy_that_never_reads_it():
    """`opt` scores exactly whatever the config says, but a bad config is still an error."""
    with pytest.raises(InputError, match=r"expected a IgConfig or None, got 5"):
        build_plan("opt", MODEL, 3, ig_cfg=5)


def test_sampled_conditional_entropies_checks_its_config():
    with pytest.raises(InputError, match=r"expected a IgConfig or None, got 5"):
        sampled_conditional_entropies(MODEL, [[1, 1, 1]], cfg=5)


@pytest.mark.parametrize("p, shown", [("a", "'a'"), (None, "None"), (math.nan, "nan")])
def test_inject_correlation_probability_must_be_a_real_number(p, shown):
    data = generate(MODEL, [1, 1, 1], 3)
    with pytest.raises(InputError, match=f"probability must be a real number, got {shown}"):
        inject_correlation(data, p)


@pytest.mark.parametrize("accuracy, shown", [("x", "'x'"), (math.nan, "nan")])
def test_quantile_paths_accuracies_must_be_real_numbers(accuracy, shown):
    with pytest.raises(InputError, match=f"worker 'a' must be a real number, got {shown}"):
        quantile_paths({"a": accuracy, "b": 0.6}, 2)


def test_cpt_entries_must_be_real_numbers():
    with pytest.raises(InputError, match=r"Cpt.rows: expected 2-d array of real numbers \(could"):
        Cpt([[0.5, "x"], [0.5, 0.5]])


def test_cpt_rows_must_be_of_one_length():
    with pytest.raises(InputError, match=r"Cpt.rows: expected 2-d array of real numbers \(setting"):
        Cpt([[1, 0], [0]])


def test_nbi_prior_entries_must_be_real_numbers():
    with pytest.raises(InputError, match=r"prior: expected 1-d array of real numbers \(could"):
        NbiModel(LabelSpace(2), ["a", "b"], {})


def test_prior_entropy_entries_must_be_real_numbers():
    with pytest.raises(InputError, match=r"prior: expected 1-d array of real numbers \(could"):
        prior_entropy(["a", "b"])


# numpy stores a None entry as NaN; each array input refuses it instead.
NONE_ENTRY = r"expected \d-d array of real numbers \(an entry is None\)"


def test_cpt_entries_must_not_be_none():
    with pytest.raises(InputError, match="Cpt.rows: " + NONE_ENTRY):
        Cpt([[None, 1], [0, 1]])


def test_nbi_prior_entries_must_not_be_none():
    with pytest.raises(InputError, match="prior: " + NONE_ENTRY):
        NbiModel(LabelSpace(2), [None, 1.0], {})


def test_apm_prior_entries_must_not_be_none():
    with pytest.raises(InputError, match="prior: " + NONE_ENTRY):
        replace(MODEL, prior=[None, 1.0])


def test_prior_entropy_entries_must_not_be_none():
    with pytest.raises(InputError, match="prior: " + NONE_ENTRY):
        prior_entropy([0.5, None, 0.5])


def test_with_labels_needs_a_label_space():
    with pytest.raises(InputError, match="expected a LabelSpace, got None"):
        with_labels(MODEL, None)


def test_validate_model_needs_an_apm_model():
    with pytest.raises(InputError, match="expected an ApmModel, got None"):
        validate_model(None)


def test_unknown_ig_mode_names_the_choices():
    with pytest.raises(InputError, match="unknown IG mode 'x'; choose from exact, sampled, auto"):
        IgConfig(mode="x")


@pytest.mark.parametrize(
    "call",
    [
        lambda: generate(MODEL, [1, 1, 1], 2.5),
        lambda: generate(MODEL, [1, 1, 1], 2, seed=1.5),
        lambda: information_gain(MODEL, [2, 2, 2], IgConfig(mode=IgMode.SAMPLED, seed=1.5)),
        lambda: budget_sweep(generate(MODEL, [1, 1, 1], 4), ["mv"], ["equal"], [2], folds=2.5),
        lambda: check_submodularity(MODEL, trials=2.5),
        lambda: check_submodularity(MODEL, trials=-1),
        lambda: check_submodularity(MODEL, 0, seed=1.5),
        lambda: quantile_paths({"a": 0.5, "b": 0.7, "c": 0.9}, num_paths=2.5),
        lambda: inject_correlation(generate(MODEL, [1, 1, 1], 3), 0.5, seed=1.5),
        lambda: execute([3, 3], seed=1.5),
        lambda: generate(MODEL, [1, 1, 1], 0, seed=1.5),
        lambda: table_log_joint("mv", MODEL, generate(MODEL, [1, 1, 1], 3)),
        lambda: replace(MODEL, path_cpts=MODEL.path_cpts[:2]),
        lambda: generate(replace(MODEL, worker_cpts=(*MODEL.worker_cpts[:2], {})), [1, 1, 1], 2),
        lambda: baseline_plan("equal", MODEL, 3, seed=1.5),
        lambda: baseline_plan("best", MODEL, 3, seed=1.5),
        lambda: build_plan("greedy", MODEL, 3, seed=1.5),
        lambda: build_plan("opt", MODEL, 3, seed=[1]),
    ],
    ids=["num_tasks", "generate_seed", "ig_seed", "folds", "trials", "negative_trials",
         "audit_seed_no_trials", "num_paths", "inject_seed_no_draw", "execute_seed_no_draw",
         "generate_seed_no_tasks", "mv_log_joint", "misaligned_model", "no_workers_to_vote",
         "equal_seed_no_draw", "best_seed_no_draw", "greedy_seed_no_draw", "opt_seed_list"],
)
def test_simulation_and_sampling_arguments_are_checked(call):
    with pytest.raises(InputError):
        call()


def test_sweep_rejects_a_negative_budget_before_fitting(monkeypatch):
    def no_fitting(*args, **kwargs):
        raise AssertionError("budgets must be checked before any fitting")

    monkeypatch.setattr(evaluation, "fit_em", no_fitting)
    data = generate(MODEL, [2, 2, 2], 20, seed=0)
    with pytest.raises(InputError, match=r"bad budgets \[3, -1\]: budget must be non-negative"):
        budget_sweep(data, model_kinds=["apm"], strategies=["greedy"], budgets=[3, -1])


@pytest.mark.parametrize("kind", ["apm", "nbi"])
def test_learn_with_infinite_alpha_exits_2(tmp_path, capsys, kind):
    votes = tmp_path / "votes.csv"
    rows = [f"t{i},{p},w{p},{(i + p) % 2}," for i in range(6) for p in (0, 1)]
    votes.write_text("task_id,path_id,worker_id,vote,truth\n" + "\n".join(rows) + "\n")
    argv = ["learn", "--votes", str(votes), "--model-kind", kind, "--alpha", "inf"]
    assert main(argv + ["--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err.startswith("error: smoothing_alpha must be finite")


VALUES = st.one_of(
    st.integers(-3, 8),
    st.fractions(-3, 8, max_denominator=12),
    st.decimals(-3, 8, places=2, allow_nan=False, allow_infinity=False).map(str),
    st.floats(-3, 8).filter(lambda x: not x.is_integer()),
    st.sampled_from([math.inf, -math.inf, math.nan, None, "", "abc", "1/0", "nan", "2x"]),
)


def rational(value):
    """The exact rational `value` stands for, or None."""
    try:
        return Fraction(value)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError):
        return None


def integer(value):
    """The int `value` is, or None."""
    try:
        return operator.index(value)
    except TypeError:
        return None


def check(valid, call, expected, too_big=False):
    """A valid input gives the expected result, or a ResourceLimitError when it
    is too big to compute; an invalid one is an InputError."""
    if valid and too_big:
        with pytest.raises(ResourceLimitError):
            call()
    elif valid:
        assert call() == expected()
    else:
        with pytest.raises(InputError):
            call()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    VALUES,
    st.one_of(VALUES, st.sampled_from([2**31, 2**32, 2**63])),
    VALUES,
    VALUES,
    st.one_of(VALUES, st.text(max_size=3)),
)
def test_planning_inputs_are_kept_exactly_or_rejected(cost, count, budget, tasks, seed):
    price, n, b, t = rational(cost), integer(count), rational(budget), integer(tasks)
    good_cost = price is not None and price > 0
    good_count = n is not None and n >= 0
    # Above MAX_CELLS votes on one path, no simulation, sampled block or enumeration fits.
    huge = good_count and n > MAX_CELLS
    good_budget = b is not None and b >= 0
    good_tasks = t is not None and t >= 0
    good_seed = isinstance(seed, str) or integer(seed) is not None
    same_seed = seed if isinstance(seed, str) else integer(seed)

    check(good_cost, lambda: AccessPathSpec(0, cost).cost, lambda: price)
    check(good_cost, lambda: with_costs(MODEL, [1, cost, 1]).costs, lambda: (1, price, 1))
    check(good_count, lambda: AccessPlan((count, 2)).counts, lambda: (n, 2))

    def greedy_leftover():
        result = greedy_plan(MODEL, budget, EXACT)
        return result.cost <= b and b - result.cost < min(MODEL.costs)

    check(good_budget, greedy_leftover, lambda: True)
    check(
        good_budget and good_seed,
        lambda: baseline_plan("equal", MODEL, budget, seed=seed),
        lambda: baseline_plan("equal", MODEL, b, seed=same_seed),
    )

    def executed():
        bought, _ = execute([count, 1], seed=seed)
        return np.bincount(SAMPLE_TABLE.path_idx[bought], minlength=2).tolist()

    check(good_count and good_seed, executed, lambda: [min(n, 3), 1])

    def gain(plan, seed):
        cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=16, seed=seed)
        return information_gain(MODEL, plan, cfg).value

    check(
        good_count and good_seed,
        lambda: gain([count, 1, 0], seed),
        lambda: gain([n, 1, 0], same_seed),
        huge,
    )
    check(
        good_count,
        lambda: information_gain(MODEL, [count, 1, 0], EXACT).value,
        lambda: information_gain(MODEL, (n, 1, 0), EXACT).value,
        huge,
    )

    def votes_per_path():
        data = generate(MODEL, [count, 1, 0], tasks, seed=seed)
        return len(data), np.bincount(data.path_idx, minlength=3).tolist()

    check(
        good_count and good_tasks and good_seed,
        votes_per_path,
        lambda: (t, [n * t, t, 0]),
        huge,
    )


def utf8_error_at_line_3(tmp_path, ending: bytes) -> str:
    """The error of a file whose third line holds a byte that is not UTF-8."""
    rows = [b"task_id,path_id,worker_id,vote,truth", b"t1,0,,no,", b"t2,0,,y\xffes,", b"t3,0,,no,"]
    f = tmp_path / "v.csv"
    f.write_bytes(ending.join(rows) + ending)
    with pytest.raises(InputError) as exc:
        read_votes_csv(str(f))
    assert str(exc.value) == f"{f}: line 3: not valid UTF-8 (invalid start byte)"


def test_utf8_error_line_under_lf_endings(tmp_path):
    utf8_error_at_line_3(tmp_path, b"\n")


def test_utf8_error_line_under_crlf_endings(tmp_path):
    utf8_error_at_line_3(tmp_path, b"\r\n")


def test_utf8_error_line_under_lone_cr_endings(tmp_path):
    utf8_error_at_line_3(tmp_path, b"\r")
