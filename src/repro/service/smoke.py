"""The CI service smoke: ``python -m repro.service.smoke``.

Starts a :class:`~repro.service.server.QueryServer` over a mid-sized
catalog, fires a burst of concurrent client queries — mixed priorities,
one with an already-passed deadline, one cancelled mid-flight — and
asserts the service degrades *typed*: every query either returns rows or
raises one of the :mod:`repro.errors` classes, nothing hangs, and the
server shuts down gracefully within its bound.

The telemetry surface is smoked too: one traced query's id must come
back on the response, a query refused before it runs must raise with
its request's id, a ``metrics`` scrape must render as Prometheus
text that the validating parser accepts, and ``health`` must report an
``accepting`` service with a consistent outcome count. Run with
``REPRO_QUERY_LOG`` set to also capture a traced query log (CI uploads
it as an artifact).

Exit code 0 on success, 1 with a diagnosis on any violation.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from repro.datagen import Density, Sortedness, make_join_scenario
from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    ObservabilityError,
    QueryCancelled,
    ReproError,
    ServiceError,
)
from repro.obs import enable_observability
from repro.obs.exposition import parse_prometheus, render_prometheus
from repro.service.admission import AdmissionConfig
from repro.service.server import QueryServer, ServiceClient
from repro.service.session import QueryService, ServiceConfig
from repro.settings import scoped_settings

SQL = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
#: one group per R row: a response as large as the catalog makes it.
FULL_SQL = "SELECT R.ID, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.ID"
SHUTDOWN_BUDGET_SECONDS = 5.0


def _client_worker(port: int, spec: dict, results: list, index: int) -> None:
    try:
        with ServiceClient("127.0.0.1", port) as client:
            response = client.query(SQL, **spec)
            results[index] = (
                "ok", response["row_count"], response.get("trace_id")
            )
    except ReproError as error:
        results[index] = (type(error).__name__, str(error))
    except BaseException as error:  # noqa: BLE001 - smoke must diagnose
        results[index] = ("UNTYPED:" + type(error).__name__, str(error))


def _typed(rows: list) -> list:
    """Rows with each value paired with its type (``1 == 1.0`` does not
    make an int column that arrives as floats equal)."""
    return [[(type(value), value) for value in row] for row in rows]


def _check_full_response(service: QueryService, client: ServiceClient) -> list[str]:
    """One untruncated full-size response must equal the in-process
    result row for row and type for type: the wire's encode and decode
    lose nothing."""
    # The in-process reference is not a served query: it writes no
    # query-log row, so every ``service`` row in the log is a served one.
    with scoped_settings(query_log=""):
        table = service.execute(FULL_SQL).table
    response = client.query(FULL_SQL, max_rows=table.num_rows + 1)
    names = list(table.schema.names)
    expected = [list(row) for row in zip(*(table[name].tolist() for name in names))]
    print(f"full response: {len(response['rows'])} rows over the wire")
    if response["truncated"] or _typed(response["rows"]) != _typed(expected):
        return [
            f"full response differs from the in-process result "
            f"({len(response['rows'])} rows on the wire, {len(expected)} in process)"
        ]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--rows", type=int, default=200_000)
    args = parser.parse_args(argv)

    # Live metrics + spans: the telemetry scrape below needs real data.
    enable_observability()

    scenario = make_join_scenario(
        n_r=args.rows // 8,
        n_s=args.rows,
        num_groups=100,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
        seed=23,
    )
    service = QueryService(
        scenario.build_catalog(),
        ServiceConfig(
            admission=AdmissionConfig(
                max_concurrency=4, max_queue_depth=32, degrade_queue_depth=8
            )
        ),
    )
    server = QueryServer(service).start()
    print(f"service smoke: server on port {server.port}")

    failures: list[str] = []
    try:
        with ServiceClient("127.0.0.1", server.port) as warm:
            warmed = warm.query(SQL)
            print(f"warm-up: {warmed['row_count']} groups")
            failures.extend(_check_full_response(service, warm))
            # A query refused before it runs raises with its request's id.
            try:
                warm.query(SQL, max_rows=-1, trace_id="smoke-refused-0001")
                failures.append("a query with max_rows -1 was answered")
            except ServiceError as error:
                if error.trace_id != "smoke-refused-0001":
                    failures.append(f"refused query's trace_id {error.trace_id!r}")

        # One spec per client: mostly plain queries at mixed priorities,
        # plus one past-deadline query and one that gets cancelled.
        specs: list[dict] = []
        for index in range(args.clients):
            specs.append({"priority": index % 3})
        specs[3] = {"deadline": 0.0}
        specs[5] = {"id": "smoke-cancel-me"}
        specs[1] = {"trace_id": "smoke-trace-0001"}

        results: list = [None] * len(specs)
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(server.port, spec, results, index),
            )
            for index, spec in enumerate(specs)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()

        with ServiceClient("127.0.0.1", server.port) as killer:
            kill_deadline = time.monotonic() + 10.0
            while time.monotonic() < kill_deadline:
                if killer.cancel("smoke-cancel-me"):
                    break
                if results[5] is not None:
                    break  # finished before we could cancel it
                time.sleep(0.002)

        for thread in threads:
            thread.join(timeout=60.0)
            if thread.is_alive():
                failures.append("client thread hung past 60s")
        elapsed = time.monotonic() - started

        ok = sum(1 for r in results if r and r[0] == "ok")
        tally: dict[str, int] = {}
        for result in results:
            kind = result[0] if result else "NO-RESULT"
            tally[kind] = tally.get(kind, 0) + 1
        print(
            f"{len(specs)} concurrent clients in {elapsed:.2f}s: "
            + ", ".join(f"{k}={v}" for k, v in sorted(tally.items()))
        )

        for index, result in enumerate(results):
            if result is None:
                failures.append(f"client {index} produced no result")
            elif result[0].startswith("UNTYPED"):
                failures.append(f"client {index} failed untyped: {result}")
        if results[3] and results[3][0] != DeadlineExceeded.__name__:
            failures.append(f"past-deadline query got {results[3]}")
        allowed_cancel = {QueryCancelled.__name__, "ok"}
        if results[5] and results[5][0] not in allowed_cancel:
            failures.append(f"cancelled query got {results[5]}")
        for index, result in enumerate(results):
            if result and result[0] == "ok" and result[1] != 100:
                failures.append(f"client {index} got {result[1]} rows")
        if ok == 0:
            failures.append("no query succeeded")
        for kind in tally:
            if kind not in {
                "ok",
                DeadlineExceeded.__name__,
                QueryCancelled.__name__,
                AdmissionRejected.__name__,
            }:
                failures.append(f"unexpected outcome class {kind!r}")
        if service.admission.running or service.admission.queue_depth:
            failures.append(
                f"slots leaked: running={service.admission.running} "
                f"queued={service.admission.queue_depth}"
            )

        # Telemetry surface: trace echo, health, and a validating
        # Prometheus scrape.
        if (
            results[1]
            and results[1][0] == "ok"
            and results[1][2] != "smoke-trace-0001"
        ):
            failures.append(
                f"traced query echoed trace_id {results[1][2]!r}"
            )
        with ServiceClient("127.0.0.1", server.port) as probe:
            health = probe.health()
            print(
                f"health: state={health['state']} "
                f"completed={health['counts']['completed']} "
                f"slo_samples={health['slo']['total_count']} "
                f"cache_hit_rate={health['plan_cache']['hit_rate']:.2f}"
            )
            if health["state"] != "accepting":
                failures.append(
                    f"drained service reports state {health['state']!r}"
                )
            if health["counts"]["completed"] < ok:
                failures.append(
                    "health completed count below observed successes"
                )
            scraped = probe.metrics()
            text = render_prometheus(
                scraped.get("metrics", {}), kinds=scraped.get("kinds", {})
            )
            try:
                parsed = parse_prometheus(text)
            except ObservabilityError as error:
                failures.append(f"exposition does not parse: {error}")
            else:
                print(
                    f"exposition: {len(text.splitlines())} lines, "
                    f"{len(parsed)} series, parse OK"
                )
                if "repro_service_completed_total" not in parsed:
                    failures.append(
                        "exposition lacks repro_service_completed_total"
                    )

        # Under REPRO_STORAGE=disk the whole burst ran out-of-core:
        # the buffer pool must have been exercised and must have held
        # its hard byte budget throughout the concurrent load.
        from repro.settings import get_settings
        from repro.storage.disk import get_buffer_manager

        if get_settings().storage == "disk":
            pool = get_buffer_manager()
            pool_stats = pool.stats()
            print(
                "buffer pool: "
                f"budget={pool_stats['budget_bytes']} "
                f"resident={pool_stats['resident_bytes']} "
                f"hits={pool_stats['hits']} misses={pool_stats['misses']} "
                f"evictions={pool_stats['evictions']} "
                f"transient={pool_stats['transient_loads']}"
            )
            if pool_stats["resident_bytes"] > pool.budget_bytes:
                failures.append(
                    f"buffer pool over budget: {pool_stats['resident_bytes']}"
                    f" > {pool.budget_bytes}"
                )
            if pool_stats["misses"] == 0:
                failures.append(
                    "disk mode but the buffer pool never loaded a segment"
                )
    finally:
        shutdown_started = time.monotonic()
        server.shutdown(timeout=SHUTDOWN_BUDGET_SECONDS)
        shutdown_seconds = time.monotonic() - shutdown_started
        print(f"graceful shutdown in {shutdown_seconds:.2f}s")
        if shutdown_seconds > SHUTDOWN_BUDGET_SECONDS:
            failures.append(
                f"shutdown took {shutdown_seconds:.2f}s "
                f"(budget {SHUTDOWN_BUDGET_SECONDS}s)"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
