"""The two halves of "the same trace" (:mod:`repro.runner.digest`).

A change to anything the analysis layer reads moves the record half and
not the event half; a change to a simulator counter moves the event half
and not the record half.  The record half hashes values: object sharing,
which pickle would encode, is not part of it.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.analysis.records import LoginRecord
from repro.net.geo import GeoDatabase
from repro.runner import event_digest, record_digest

pytestmark = pytest.mark.runner


def _moves_records_only(changed, base) -> bool:
    return (record_digest(changed) != record_digest(base)
            and event_digest(changed) == event_digest(base))


@pytest.mark.parametrize("kind, name, delta", [
    ("downloads", "peer_bytes", 1),
    ("logins", "ip", "0"),
    ("registrations", "timestamp", 1.0),
])
def test_a_record_field_moves_only_the_record_half(tiny_artifact, kind,
                                                   name, delta):
    changed = copy.deepcopy(tiny_artifact)
    assert record_digest(changed) == record_digest(tiny_artifact)
    record = getattr(changed.logstore, kind)[0]
    setattr(record, name, getattr(record, name) + delta)
    assert _moves_records_only(changed, tiny_artifact)


def test_geodb_censuses_and_finalized_count_are_record_half(tiny_artifact):
    ip, row = next(iter(tiny_artifact.geodb.items()))
    geodb = GeoDatabase()
    for other_ip, other_row in tiny_artifact.geodb.items():
        geodb.register(other_ip, other_row)
    geodb.register(ip, dataclasses.replace(row, asn=row.asn + 1))
    for change in (
        {"geodb": geodb},
        {"mobility_census": {**tiny_artifact.mobility_census, "moved": 1}},
        {"cloning_census": {**tiny_artifact.cloning_census, "cloned": 1}},
        {"finalized_downloads": tiny_artifact.finalized_downloads + 1},
    ):
        changed = dataclasses.replace(tiny_artifact, **change)
        assert _moves_records_only(changed, tiny_artifact), change


def test_geodb_rows_hash_in_ip_order(tiny_artifact):
    reversed_db = GeoDatabase()
    for ip, row in reversed(list(tiny_artifact.geodb.items())):
        reversed_db.register(ip, row)
    assert record_digest(dataclasses.replace(
        tiny_artifact, geodb=reversed_db)) == record_digest(tiny_artifact)


def test_a_counter_moves_only_the_event_half(tiny_artifact):
    stats = tiny_artifact.stats
    changed = dataclasses.replace(tiny_artifact, stats=dataclasses.replace(
        stats, sim_heap_pushes=stats.sim_heap_pushes + 1))
    assert event_digest(changed) != event_digest(tiny_artifact)
    assert record_digest(changed) == record_digest(tiny_artifact)


def test_object_sharing_is_not_part_of_the_value(tiny_artifact):
    def login(secondary: str) -> LoginRecord:
        return LoginRecord(guid=guid, ip="10.0.0.1", timestamp=1.0,
                           software_version="1.0", uploads_enabled=True,
                           secondary_guids=(secondary,))

    guid = "".join(["guid", "-42"])
    copied = "".join(["guid", "-42"])
    assert copied == guid and copied is not guid
    shared, distinct = login(guid), login(copied)
    # Pickle memoizes the shared string, so it tells the two apart.
    assert pickle.dumps(shared) != pickle.dumps(distinct)

    def with_login(record):
        changed = copy.deepcopy(tiny_artifact)
        changed.logstore.logins[0] = record
        return record_digest(changed)

    assert with_login(shared) == with_login(distinct)
