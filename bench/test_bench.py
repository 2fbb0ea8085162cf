"""Tests of the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import check
import queries
import run
import spans
import speed

# decompose 2,1 --format json at the reference commit.
GOOD = (
    '{"nu": [2, 1], "inner": "s2", "terms": [{"lambda": [5, 1], "mult": 1}, '
    '{"lambda": [4, 2], "mult": 1}, {"lambda": [3, 2, 1], "mult": 1}], '
    '"method": "two-row"}\n'
)
ARGV = ["decompose", "2,1", "--format", "json"]


@pytest.mark.parametrize(
    "shape, dim",
    [((), 1), ((1,), 1), ((2, 1), 2), ((3, 1, 1), 6), ((3, 2, 1), 16),
     ((4, 4), 14), ((5, 1), 5), ((4, 2), 9), ((2, 2, 2), 5), ((3, 3), 5),
     ((2, 2, 1, 1), 9), ((4, 3, 1), 70)],
)
def test_dimension_known_values(shape, dim):
    assert check.dimension(shape) == dim


def test_induced_degree():
    # (2n)!/(2^n n!) is the double factorial (2n-1)!!
    assert [check.induced_degree(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]


def test_self_time_on_nested_spans():
    # cli [0,10] > formulas [1,9] > {lr [2,5], formulas [5,6] > lr [5.5,6]}, lr [6,8]
    s = [
        ["cli.main", 0.0, 10.0, None, 0, None],
        ["formulas.alternating", 1.0, 9.0, 0, 0, {"mass": 3}],
        ["lr.schur_multiply", 2.0, 5.0, 1, 0, {"pairs": 2, "mass": 4}],
        ["formulas.phi", 5.0, 6.0, 1, 0, None],
        ["lr.schur_multiply", 5.5, 6.0, 3, 0, {"pairs": 1, "mass": 1}],
        ["lr.schur_multiply", 6.0, 8.0, 1, 0, {"pairs": 3, "mass": 5}],
    ]
    self_s, top_name, top_layer = spans.span_times(s)
    assert self_s == [2.0, 2.0, 3.0, 0.5, 0.5, 2.0]
    assert top_layer == [True, True, True, False, True, True]
    assert top_name == [True] * 6
    m = spans.session_metrics({"import_s": 0.1, "memos": {}, "spans": s})
    assert m["cli.busy_s"] == 10.0 and m["cli.self_s"] == 2.0
    # busy time counts the nested formulas span once, self time both
    assert m["formulas.busy_s"] == 8.0 and m["formulas.self_s"] == 2.5
    assert m["formulas.calls"] == 2
    assert m["lr.schur_multiply.busy_s"] == 5.5
    assert m["lr.schur_multiply.calls"] == 3 and m["lr.schur_multiply.pairs"] == 6
    # only products directly inside an alternating sum are intermediate mass
    assert m["formulas.intermediate_mass"] == 9 and m["formulas.final_mass"] == 3


def test_wrappers_on_the_package():
    # phi_hook(14, 3) sums 15010 intermediate multiplicities down to 7562
    # through 4 LR products; it is called through the package namespace,
    # so that binding must be replaced too.
    code = (
        "import foulkes, foulkes.cli, spans\n"
        "r = spans.Recorder(); spans.install(r)\n"
        "foulkes.phi_hook(14, 3)\n"
        "m = spans.session_metrics("
        "{'import_s': 0, 'memos': spans.memo_counters(), 'spans': r.spans})\n"
        "print(m['formulas.intermediate_mass'], m['formulas.final_mass'],"
        " m['lr.schur_multiply.calls'], m['lr.product_terms.misses'] > 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=run.BENCH, env=run._env(),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.split() == ["15010", "7562", "4", "True"], proc.stderr


def test_percentile_and_sample_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.min_samples(90, 10) == 100
    assert run.min_samples(50, 10) == 20


def test_speed_scaling():
    ref = speed.REFERENCE_S
    # a host twice as slow as the reference halves the times
    assert run._scale([2 * ref]) == 0.5
    assert run._window([1, 2, 3, 4, 5, 6], 0, 2) == [1, 2, 3]
    assert run._window([1, 2, 3, 4, 5, 6], 4, 1) == [4, 5, 6]
    probes = [ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert run._local_scales(probes, [0, 0, 4], 1) == [1.0, 1.0, 0.5]
    assert speed.probe() > 0


def test_query_orders():
    pool = queries.oneshot_pool()
    draw = queries.oneshot_draw(7)
    first = [next(draw) for _ in pool]
    assert sorted(map(check.key, first)) == sorted(map(check.key, pool))
    # sweep sessions come in pairs, the second one backwards
    sweep = queries.oracle_sweep()
    a, b, c = (queries.session_order(sweep, "oracle_sweep", 7, k) for k in (2, 3, 4))
    assert b == a[::-1] and c != a and sorted(c) == sorted(sweep)


def test_golden_covers_every_query():
    golden = check.load_golden()
    assert all(check.key(argv) in golden for argv in queries.all_queries())


def test_good_output_passes():
    golden = {check.key(ARGV): [0, check.digest(GOOD)]}
    assert check.failure(ARGV, 0, GOOD, golden) is None


def test_corrupted_output_raises_error_rate():
    golden = {check.key(ARGV): [0, check.digest(GOOD)]}
    tally = run.Tally(golden)
    tally.add(ARGV, 0, GOOD)
    assert tally.error_rate == 0
    # a tampered digest
    tally.add(ARGV, 0, GOOD.replace("two-row", "two_row"))
    assert tally.failed == 1
    # a wrong multiplicity that also matches its (re-recorded) digest:
    # only the dimension invariant can catch it
    wrong = GOOD.replace('[4, 2], "mult": 1', '[4, 2], "mult": 2')
    tally.golden = {check.key(ARGV): [0, check.digest(wrong)]}
    tally.add(ARGV, 0, wrong)
    assert tally.failed == 2
    assert "dimension" in tally.failures[-1]
    # a wrong exit code
    tally.add(ARGV, 2, wrong)
    assert tally.failed == 3 and tally.error_rate == 3 / 4


def test_invariant_reads_every_format():
    text = "nu: 2,1\ninner: s2\nmethod: two-row\nterms:\n  5,1  1\n  4,2  1\n  3,2,1  1\n"
    text += "constituents: 3\nmultiplicity: 3\ndimension: 30\n"
    csv = "lambda;mult;table1_class\n5,1;1;\n4,2;1;\n3,2,1;1;\n"
    assert check.invariant_error(["decompose", "2,1"], text) is None
    assert check.invariant_error(["decompose", "2,1", "--format", "csv"], csv) is None
    negative = csv.replace("4,2;1;", "4,2;-1;")
    assert "non-positive" in check.invariant_error(["oracle", "2,1", "--format", "csv"], negative)


@pytest.mark.parametrize("workload", [w["name"] for w in run._spec()["workloads"]])
def test_smoke_run(workload):
    result = run.run_workload(workload, seed=3, seconds=0.1, trace=False, min_count=5)
    assert result["attempted"] >= 5 and result["failed"] == 0
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["oracle_sweep", "cli_oneshot"])
def test_smoke_traced_run(workload):
    result = run.run_workload(workload, seed=3, seconds=0.1, trace=True)
    assert result["failed"] == 0
    wanted = {m["name"] for m in run._spec()["per_layer"]}
    assert wanted == result["metrics"].keys()
    if workload == "oracle_sweep":
        m = result["metrics"]
        assert m["expansions.powersum_to_schur.busy_s"] > m["cli.busy_s"] / 2
        assert all(m[k] == 0 for k in wanted if k.startswith("lr."))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


