"""Unit tests for campaign serialisation and fault dictionaries."""

import json

import pytest

from repro.core.campaign import Campaign, ConvWorkload, FillKind, GemmWorkload
from repro.core.serialize import (
    SCHEMA_VERSION,
    campaign_to_dict,
    experiment_from_record,
    experiment_record,
    fault_dictionary,
    load_campaign,
    load_metrics,
    metrics_from_dict,
    metrics_to_dict,
    save_campaign,
    save_fault_dictionary,
    save_metrics,
)
from repro.core.records import SpecError
from repro.obs.metrics import MetricsRegistry
from repro.systolic import Dataflow, MeshConfig

MESH = MeshConfig(4, 4)


@pytest.fixture(scope="module")
def ws_result():
    return Campaign(MESH, GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY)).run()


class TestCampaignToDict:
    def test_roundtrips_through_json(self, ws_result):
        data = campaign_to_dict(ws_result)
        restored = json.loads(json.dumps(data))
        assert restored == data

    def test_metadata_fields(self, ws_result):
        data = campaign_to_dict(ws_result)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["mesh"] == {"rows": 4, "cols": 4}
        assert data["dataflow"] == "WS"
        assert data["gemm_shape"] == [4, 4, 4]
        assert data["fault_spec"]["signal"] == "sum"
        assert len(data["experiments"]) == 16

    def test_experiment_entries(self, ws_result):
        entry = campaign_to_dict(ws_result)["experiments"][0]
        assert entry["pattern_class"] == "single-column"
        assert entry["num_corrupted"] == 4
        assert len(entry["corrupted_cells"]) == 4

    def test_no_telemetry_key_on_unobserved_runs(self, ws_result):
        assert ws_result.telemetry is None
        assert "telemetry" not in campaign_to_dict(ws_result)

    def test_telemetry_section_serialised_when_present(self, ws_result):
        telemetry = {"elapsed_seconds": 1.5, "sites": 16, "retries": 0}
        ws_result.telemetry = telemetry
        try:
            data = campaign_to_dict(ws_result)
            assert data["telemetry"] == telemetry
            assert json.loads(json.dumps(data))["telemetry"] == telemetry
        finally:
            ws_result.telemetry = None  # module-scoped fixture: restore

    def test_without_patterns(self):
        result = Campaign(
            MESH,
            GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY),
            sites=[(0, 0)],
            keep_patterns=False,
        ).run()
        entry = campaign_to_dict(result)["experiments"][0]
        assert entry["corrupted_cells"] is None
        assert entry["num_corrupted"] == 4


class TestSaveLoad:
    def test_save_and_load(self, ws_result, tmp_path):
        path = save_campaign(ws_result, tmp_path / "campaign.json")
        data = load_campaign(path)
        assert data["workload"] == ws_result.workload.describe()

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            load_campaign(path)


class TestArtefactFiles:
    """The saved archive and fault dictionary hold exactly their dicts."""

    @pytest.fixture(scope="class", params=["OS", "WS", "conv"])
    def result(self, request):
        workload = {
            "OS": GemmWorkload(6, 5, 7, Dataflow.OUTPUT_STATIONARY, FillKind.RANDOM),
            "WS": GemmWorkload(6, 5, 7, Dataflow.WEIGHT_STATIONARY, FillKind.RANDOM),
            "conv": ConvWorkload.paper_kernel(6, (3, 3, 2, 5)),
        }[request.param]
        return Campaign(MESH, workload, engine="analytic").run()

    def test_archive_file_round_trips(self, result, tmp_path):
        path = save_campaign(result, tmp_path / "campaign.json")
        assert json.loads(path.read_text()) == campaign_to_dict(result)
        assert load_campaign(path) == campaign_to_dict(result)

    def test_fault_dictionary_file_round_trips(self, result, tmp_path):
        path = save_fault_dictionary(result, tmp_path / "dictionary.json")
        assert json.loads(path.read_text()) == fault_dictionary(result)


class TestExperimentRecordCells:
    def test_cells_densify_to_the_same_pattern(self, ws_result):
        experiment = ws_result.experiments[5]
        record = json.loads(json.dumps(experiment_record(experiment)))
        rebuilt = experiment_from_record(
            record, shape=ws_result.golden.shape, plan=ws_result.plan
        )
        assert (rebuilt.pattern.deviation == experiment.pattern.deviation).all()
        assert (rebuilt.pattern.mask == experiment.pattern.mask).all()

    @pytest.mark.parametrize(
        "cells", [[[1, 5]], [[1, 2, 3], [1, 2]], [[1, 2, 3.5]], [[0, 0, "x"]]]
    )
    def test_malformed_cells_are_refused(self, ws_result, cells):
        record = experiment_record(ws_result.experiments[0])
        record["cells"] = cells
        with pytest.raises(ValueError):
            experiment_from_record(record, shape=ws_result.golden.shape)


class TestNestedDecodeErrors:
    """A bad item deep in a record's tuple lists is named by its full path."""

    @pytest.mark.parametrize(
        "tiles, path, message",
        [
            (
                [[0, 0], [0, 1], [1, 0], [1, "x"]],
                "classification.corrupted_tiles[3][1]",
                "expected an integer, got str",
            ),
            (
                [[0, 0], [True, 1]],
                "classification.corrupted_tiles[1][0]",
                "expected an integer, got bool",
            ),
            (
                [[0, 0], [0, 1], [2]],
                "classification.corrupted_tiles[2]",
                "expected 2 items, got 1",
            ),
            (
                [[0, 0], 7],
                "classification.corrupted_tiles[1]",
                "expected a list, got int",
            ),
        ],
    )
    def test_bad_tile_is_named_by_its_path(self, ws_result, tiles, path, message):
        record = experiment_record(ws_result.experiments[0])
        record["classification"]["corrupted_tiles"] = tiles
        with pytest.raises(SpecError) as caught:
            experiment_from_record(record)
        assert caught.value.path == path
        assert str(caught.value) == f"{path}: {message}"

    def test_valid_tiles_decode_to_tuples(self, ws_result):
        record = experiment_record(ws_result.experiments[0])
        record["classification"]["corrupted_tiles"] = [[0, 0], [1, 2]]
        rebuilt = experiment_from_record(record)
        assert rebuilt.classification.corrupted_tiles == ((0, 0), (1, 2))


class TestMetricsCodec:
    def _registry(self):
        registry = MetricsRegistry()
        registry.gauge("repro_sites_total", "Sites.").set(16)
        registry.counter("repro_sites_completed_total", "Done.").inc(16)
        registry.histogram("repro_shard_seconds", "Latency.").observe(0.25)
        return registry

    def test_envelope(self):
        data = metrics_to_dict(self._registry())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["kind"] == "metrics-snapshot"
        assert json.loads(json.dumps(data)) == data

    def test_round_trip_restores_values(self):
        restored = metrics_from_dict(metrics_to_dict(self._registry()))
        assert restored.value("repro_sites_total") == 16.0
        assert restored.value("repro_sites_completed_total") == 16.0
        assert restored.histogram_at("repro_shard_seconds").count == 1

    def test_save_and_load(self, tmp_path):
        path = save_metrics(self._registry(), tmp_path / "metrics.json")
        restored = load_metrics(path)
        assert restored.snapshot() == self._registry().snapshot()

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            metrics_from_dict({"schema_version": SCHEMA_VERSION, "kind": "campaign", "metrics": []})

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            metrics_from_dict({"schema_version": 999, "kind": "metrics-snapshot", "metrics": []})


class TestFaultDictionary:
    def test_one_entry_per_site(self, ws_result):
        dictionary = fault_dictionary(ws_result)
        assert len(dictionary["sites"]) == 16
        assert dictionary["hardware"]["dataflow"] == "WS"
        entry = dictionary["sites"]["1,2"]
        assert entry["pattern_class"] == "single-column"
        assert all(cell[1] == 2 for cell in entry["cells"])

    def test_conv_entries_carry_channels(self):
        result = Campaign(
            MESH, ConvWorkload.paper_kernel(6, (3, 3, 2, 3)), sites=[(0, 1)]
        ).run()
        dictionary = fault_dictionary(result)
        assert dictionary["sites"]["0,1"]["channels"] == [1]

    def test_save_fault_dictionary(self, ws_result, tmp_path):
        path = save_fault_dictionary(ws_result, tmp_path / "dict.json")
        data = json.loads(path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert "stuck-at-1" in data["fault_model"]
