"""The wire types: canonicalization, round-trips, schema negotiation.

``to_dict``/``from_dict`` must be exact inverses and the dictionaries
JSON-ready — the service, the client and the cache all rely on it.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.errors import SchemaVersionError, ValidationError
from repro.api.types import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    ErrorInfo,
    PredictionResult,
    Query,
    QueryGrid,
    _canonical_config,
    _check_str,
    check_schema_version,
)


class TestQuery:
    def test_canonicalization(self):
        query = Query(
            workload="DGEMM", size_gb=4, config="cache", machine="KNL7210"
        )
        assert query.workload == "dgemm"
        assert query.size_gb == 4.0
        assert query.config == "Cache Mode"
        assert query.machine == "knl7210"

    def test_equivalent_spellings_compare_equal(self):
        a = Query(workload="minife", size_gb=7.2, config="CACHE")
        b = Query(workload="MiniFE", size_gb=7.2, config="Cache Mode")
        assert a == b
        assert hash(a) == hash(b)

    def test_round_trip_is_json_ready(self):
        query = Query(
            workload="xsbench", size_gb=2.5, config="HBM", num_threads=128
        )
        wire = json.loads(json.dumps(query.to_dict()))
        assert Query.from_dict(wire) == query

    def test_defaults(self):
        query = Query.from_dict(
            {"workload": "dgemm", "size_gb": 4.0, "config": "DRAM"}
        )
        assert query.num_threads == 64
        assert query.machine == "knl7210"

    @pytest.mark.parametrize(
        "patch",
        [
            {"size_gb": -1.0},
            {"size_gb": float("nan")},
            {"size_gb": float("inf")},
            {"size_gb": True},
            {"num_threads": 0},
            {"num_threads": 2.5},
            {"config": "Quantum Mode"},
            {"machine": "epyc"},
            {"workload": ""},
        ],
    )
    def test_invalid_fields_raise(self, patch):
        data = {"workload": "dgemm", "size_gb": 4.0, "config": "DRAM"}
        data.update(patch)
        with pytest.raises(ValidationError):
            Query.from_dict(data)

    def test_unknown_and_missing_fields_raise(self):
        with pytest.raises(ValidationError, match="unknown field"):
            Query.from_dict(
                {
                    "workload": "dgemm",
                    "size_gb": 4.0,
                    "config": "DRAM",
                    "tenant": "a",
                }
            )
        with pytest.raises(ValidationError, match="missing required"):
            Query.from_dict({"workload": "dgemm", "size_gb": 4.0})


class TestQueryGrid:
    def test_expand_is_workload_major(self):
        grid = QueryGrid(
            workloads=("dgemm", "minife"),
            sizes_gb=(2.0, 4.0),
            configs=("DRAM", "HBM"),
            num_threads=(32, 64),
        )
        points = grid.expand()
        assert len(points) == len(grid) == 16
        assert points[0] == Query(
            workload="dgemm", size_gb=2.0, config="DRAM", num_threads=32
        )
        # threads vary fastest, workloads slowest
        assert points[1].num_threads == 64
        assert points[8].workload == "minife"

    def test_round_trip(self):
        grid = QueryGrid(
            workloads=("xsbench",), sizes_gb=(2.5,), configs=("cache",)
        )
        wire = json.loads(json.dumps(grid.to_dict()))
        assert QueryGrid.from_dict(wire) == grid

    def test_empty_axis_raises(self):
        with pytest.raises(ValidationError, match="must not be empty"):
            QueryGrid(workloads=(), sizes_gb=(2.0,), configs=("DRAM",))

    def test_string_axis_raises(self):
        with pytest.raises(ValidationError, match="must be a list"):
            QueryGrid(
                workloads="dgemm", sizes_gb=(2.0,), configs=("DRAM",)
            )


class TestPredictionResult:
    def _result(self, **overrides):
        fields = {
            "query": Query(workload="dgemm", size_gb=4.0, config="HBM"),
            "metric": 1.25e12,
            "metric_name": "FLOPS",
            "metric_unit": "flop/s",
            "time_ns": 3.5e9,
        }
        fields.update(overrides)
        return PredictionResult(**fields)

    def test_round_trip_feasible(self):
        result = self._result()
        wire = json.loads(json.dumps(result.to_dict()))
        assert PredictionResult.from_dict(wire) == result
        assert result.feasible

    def test_round_trip_infeasible(self):
        result = self._result(
            metric=None,
            time_ns=None,
            error=ErrorInfo(
                code="infeasible_config",
                message="footprint exceeds HBM",
                details={"size_gb": 32.0},
            ),
        )
        wire = json.loads(json.dumps(result.to_dict()))
        assert PredictionResult.from_dict(wire) == result
        assert not result.feasible

    def test_bad_metric_raises(self):
        wire = self._result().to_dict()
        wire["metric"] = "fast"
        with pytest.raises(ValidationError):
            PredictionResult.from_dict(wire)


class TestSchemaNegotiation:
    def test_missing_version_means_current(self):
        assert check_schema_version(None) == SCHEMA_VERSION

    def test_current_version_accepted(self):
        assert check_schema_version(SCHEMA_VERSION) == SCHEMA_VERSION

    def test_every_supported_version_accepted(self):
        for version in SUPPORTED_SCHEMA_VERSIONS:
            assert check_schema_version(version) == version

    def test_other_version_rejected(self):
        with pytest.raises(SchemaVersionError) as excinfo:
            check_schema_version(SCHEMA_VERSION + 1)
        assert excinfo.value.details["supported"] == list(
            SUPPORTED_SCHEMA_VERSIONS
        )

    @pytest.mark.parametrize("value", [True, "1", 1.0])
    def test_non_integer_version_rejected(self, value):
        with pytest.raises(ValidationError):
            check_schema_version(value)

    def test_result_from_other_schema_rejected(self):
        wire = PredictionResult(
            query=Query(workload="dgemm", size_gb=4.0, config="HBM"),
            metric=1.0,
            metric_name="FLOPS",
            metric_unit="flop/s",
        ).to_dict()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError):
            PredictionResult.from_dict(wire)


class TestErrorInfo:
    def test_round_trip_with_details(self):
        info = ErrorInfo(
            code="capacity", message="queue full", details={"max_queue": 4}
        )
        assert ErrorInfo.from_dict(json.loads(json.dumps(info.to_dict()))) == info

    def test_details_omitted_when_empty(self):
        assert "details" not in ErrorInfo(code="x", message="y").to_dict()


def enum_walk_config(value):
    """Config canonicalization as first written: walk the enum and return
    the first member whose lower-cased name or value matches."""
    from repro.core.configs import ConfigName

    text = _check_str("config", value)
    for name in ConfigName:
        if text.lower() in (name.name.lower(), name.value.lower()):
            return name.value
    options = ", ".join(n.value for n in ConfigName)
    raise ValidationError(f"unknown config {value!r}; expected one of {options}")


def _outcome(fn, value):
    try:
        return ("ok", fn(value))
    except ValidationError as exc:
        return ("error", str(exc))


def _spellings():
    from repro.core.configs import ConfigName

    for member in ConfigName:
        for text in (member.name, member.value):
            yield from {
                text,
                text.lower(),
                text.upper(),
                text.title(),
                text.swapcase(),
                f" {text}",
                f"{text} ",
                text.replace(" ", "_"),
                text[:-1],
                text + "s",
            }


class TestCanonicalConfig:
    """The alias table answers exactly what the enum walk answered."""

    @pytest.mark.parametrize(
        "value",
        sorted(set(_spellings()))
        + ["", "cache-mode", "mcdram", "CacheKmode", "İnterleave"]
        + [None, 3, b"DRAM", ["HBM"]],
        ids=repr,
    )
    def test_matches_the_enum_walk(self, value):
        assert _outcome(_canonical_config, value) == _outcome(
            enum_walk_config, value
        )

    @given(
        st.sampled_from(sorted(set(_spellings()))).flatmap(
            lambda text: st.lists(
                st.booleans(), min_size=len(text), max_size=len(text)
            ).map(
                lambda flips: "".join(
                    c.swapcase() if flip else c for c, flip in zip(text, flips)
                )
            )
        )
        | st.text(max_size=12)
    )
    def test_matches_the_enum_walk_on_drawn_spellings(self, value):
        assert _outcome(_canonical_config, value) == _outcome(
            enum_walk_config, value
        )
