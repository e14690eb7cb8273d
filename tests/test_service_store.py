"""Property tests for the shared result store and result pagination.

Two invariants the service API leans on:

* **Pagination round-trip** — following ``next_offset`` from 0 with any
  positive page size reassembles the exact unpaginated row sequence
  (hypothesis-driven over arbitrary row lists and limits).
* **Cross-instance cache sharing** — two server instances pointed at
  the same ``store_dir`` serve bit-identical rows: the second instance
  performs zero simulations and answers entirely from disk.  The sweep
  engine uses the same store class, so a sweep's cache directory warms
  the service too.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import CPU_GPU_FPGA
from repro.data.paper_tables import paper_lookup_table
from repro.experiments import sweep
from repro.experiments.scenarios import ScenarioSpec, WorkloadSpec
from repro.experiments.sweep import (
    SWEEP_FORMAT_VERSION,
    PolicySpec,
    SweepEngine,
    system_to_dict,
)
from repro.service.client import ServiceClient
from repro.service.jobs import JobManager, JobRecord
from repro.service.protocol import ProtocolError, SubmitRequest, paginate
from repro.service.server import run_service
from repro.service.store import SharedResultStore

# ----------------------------------------------------------------------
# pagination round-trip
# ----------------------------------------------------------------------
row_strategy = st.fixed_dictionaries(
    {
        "dfg": st.text(min_size=1, max_size=8),
        "policy": st.sampled_from(["met", "spn", "heft"]),
        "makespan": st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    }
)


class TestPaginationProperties:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(row_strategy, max_size=40), limit=st.integers(1, 50))
    def test_pages_reassemble_exactly(self, rows: list[dict], limit: int) -> None:
        reassembled: list[dict] = []
        offset: "int | None" = 0
        pages = 0
        while offset is not None:
            page = paginate(rows, offset, limit)
            assert page.total == len(rows)
            assert len(page.rows) <= limit
            reassembled.extend(page.rows)
            offset = page.next_offset
            pages += 1
            assert pages <= len(rows) + 1  # cursor always advances
        assert reassembled == rows

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(row_strategy, max_size=30),
        offset=st.integers(0, 40),
        limit=st.integers(1, 40),
    )
    def test_page_is_exact_slice(
        self, rows: list[dict], offset: int, limit: int
    ) -> None:
        page = paginate(rows, offset, limit)
        assert list(page.rows) == rows[offset : offset + limit]
        if page.next_offset is not None:
            assert page.next_offset == offset + len(page.rows)
            assert page.next_offset < len(rows)

    def test_bad_cursor_rejected(self) -> None:
        with pytest.raises(ProtocolError):
            paginate([], offset=-1)
        with pytest.raises(ProtocolError):
            paginate([], limit=0)


# ----------------------------------------------------------------------
# store layering properties
# ----------------------------------------------------------------------
key_strategy = st.text(
    alphabet="0123456789abcdef", min_size=8, max_size=16
).map(lambda s: f"k{s}")


class TestStoreProperties:
    @settings(max_examples=50, deadline=None)
    @given(entries=st.dictionaries(key_strategy, row_strategy, max_size=10))
    def test_memory_store_round_trips(self, entries: dict[str, dict]) -> None:
        store = SharedResultStore()
        for key, record in entries.items():
            store.put(key, record)
        for key, record in entries.items():
            assert store.get(key) == record
            assert key in store
        assert store.get("missing") is None
        assert store.puts == len(entries)

    def test_disk_layer_survives_new_instance(self, tmp_path: Path) -> None:
        # the disk layer rejects records from other sweep format
        # versions, so a valid record must carry the current version —
        # exactly as execute_payload's records do.
        record = {"version": SWEEP_FORMAT_VERSION, "makespan": 1.5}
        first = SharedResultStore(tmp_path / "store")
        first.put("abc", record)
        second = SharedResultStore(tmp_path / "store")
        assert second.get("abc") == record
        assert "abc" in second
        assert second.stats()["hits"] == 1

    def test_disk_layer_ignores_stale_format_versions(self, tmp_path: Path) -> None:
        first = SharedResultStore(tmp_path / "store")
        first.put("old", {"version": -1, "makespan": 1.5})
        second = SharedResultStore(tmp_path / "store")
        assert second.get("old") is None


# ----------------------------------------------------------------------
# two servers, one store dir
# ----------------------------------------------------------------------
def _spec() -> dict:
    return ScenarioSpec(
        name="shared_store_probe",
        description="cross-instance cache sharing",
        system=system_to_dict(CPU_GPU_FPGA()),
        workload=WorkloadSpec.of("pipeline", n_kernels=8, stage_width=2, seed=424),
        policies=(PolicySpec.of("met"), PolicySpec.of("heft")),
    ).to_dict()


class TestCrossInstanceSharing:
    def test_second_server_serves_bit_identical_rows(self, tmp_path: Path) -> None:
        store_dir = str(tmp_path / "shared")
        spec = _spec()

        def _run_once() -> tuple[list[dict], dict]:
            with run_service(store_dir=store_dir) as server:
                client = ServiceClient(server.address)
                _, body = client.submit(spec=spec)
                job = client.wait(body["job"]["id"])
                rows = client.fetch_rows(job["id"])
                return rows, job

        rows_a, job_a = _run_once()
        rows_b, job_b = _run_once()

        assert job_a["state"] == job_b["state"] == "done"
        # first instance simulated everything; the second answered
        # entirely from the shared disk store.
        assert job_a["simulated"] == 2
        assert job_b["simulated"] == 0
        assert job_b["store_hits"] == 2
        # bit-identical: same JSON serialisation, not just same floats.
        assert json.dumps(rows_a, sort_keys=True) == json.dumps(rows_b, sort_keys=True)


# ----------------------------------------------------------------------
# one store, both front ends
# ----------------------------------------------------------------------
class TestOneStoreForSweepAndService:
    def test_service_store_is_the_sweep_store(self) -> None:
        assert SharedResultStore is sweep.SharedResultStore

    def test_service_answers_a_sweeps_results_from_the_store(
        self, tmp_path: Path
    ) -> None:
        spec = ScenarioSpec.from_dict(_spec())
        results = SweepEngine(cache_dir=tmp_path).run_jobs(
            spec.jobs(paper_lookup_table())
        )

        async def serve() -> JobRecord:
            manager = JobManager(store=SharedResultStore(tmp_path))
            record = manager.submit(SubmitRequest.from_dict({"spec": spec.to_dict()}))
            final = await manager.wait(record.id)
            await manager.close()
            return final

        final = asyncio.run(serve())
        assert final.state == "done"
        assert final.simulated == 0
        assert final.store_hits == final.total == len(results)
        assert final.rows == [r.to_dict() for r in results]
