import json
import re
from pathlib import Path

import run
from workloads import COUNTS, LAYERS, WORKLOADS

MANIFEST = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_every_metric_name_is_well_formed():
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_manifest_matches_what_the_benchmark_prints():
    assert {w["name"] for w in MANIFEST["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.per_layer_units(
        LAYERS, COUNTS
    )


def test_missing_program_source_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "bulk_gpu", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_each_workload_names_the_percentiles_its_tail_metrics_carry():
    for workload in MANIFEST["workloads"]:
        tails = WORKLOADS[workload["name"]].TAILS
        assert f"carry call p{tails['call']:g}, query p{tails['query']:g}" in workload["why"] or (
            tails["call"] == tails["query"] and f"carry p{tails['call']:g}, p{tails['call']:g}"
            in workload["why"]
        ), workload["name"]
