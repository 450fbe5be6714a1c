"""The trace: an append-only store of control-plane log records.

Plays the role of the paper's one-month production data set (Table 1).  The
control plane appends records as the simulation runs; the analysis modules
query them afterwards.  Indexes are built lazily on first use and
invalidated on append, so tests that interleave writes and reads stay
correct without paying for reindexing during the simulation.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.records import DownloadRecord, LoginRecord, RegistrationRecord

__all__ = ["LogStore"]


class LogStore:
    """In-memory trace of download, login, and registration records."""

    def __init__(self):
        self.downloads: list[DownloadRecord] = []
        self.logins: list[LoginRecord] = []
        self.registrations: list[RegistrationRecord] = []
        self._logins_by_guid: dict[str, list[LoginRecord]] | None = None
        self._registrations_by_cid: dict[str, list[RegistrationRecord]] | None = None

    # ---------------------------------------------------------------- writes

    def add_download(self, record: DownloadRecord) -> None:
        """Append a download record (CN-side, at download end)."""
        self.downloads.append(record)

    def add_login(self, record: LoginRecord) -> None:
        """Append a login record (CN-side, at connection open)."""
        self.logins.append(record)
        self._logins_by_guid = None

    def add_registration(self, record: RegistrationRecord) -> None:
        """Append a DN registration entry."""
        self.registrations.append(record)
        self._registrations_by_cid = None

    # ---------------------------------------------------------------- reads

    def logins_by_guid(self) -> dict[str, list[LoginRecord]]:
        """The login records grouped by GUID, in append (time) order."""
        if self._logins_by_guid is None:
            grouped: dict[str, list[LoginRecord]] = defaultdict(list)
            for rec in self.logins:
                grouped[rec.guid].append(rec)
            self._logins_by_guid = dict(grouped)
        return self._logins_by_guid

    def registrations_by_cid(self) -> dict[str, list[RegistrationRecord]]:
        """Registration entries grouped by content id."""
        if self._registrations_by_cid is None:
            grouped: dict[str, list[RegistrationRecord]] = defaultdict(list)
            for rec in self.registrations:
                grouped[rec.cid].append(rec)
            self._registrations_by_cid = dict(grouped)
        return self._registrations_by_cid

    # ------------------------------------------------------------- utilities

    def distinct_guids(self) -> set[str]:
        """All GUIDs seen in any record type (Table 1's GUID count)."""
        guids = {r.guid for r in self.downloads}
        guids |= {r.guid for r in self.logins}
        guids |= {r.guid for r in self.registrations}
        return guids

    def distinct_ips(self) -> set[str]:
        """All IPs seen in download or login records."""
        ips = {r.ip for r in self.logins}
        ips |= {r.ip for r in self.downloads if r.ip}
        ips.discard("")
        return ips

    def distinct_urls(self) -> set[str]:
        """All URLs seen in download records."""
        return {r.url for r in self.downloads}

    def entry_count(self) -> int:
        """Total log entries of all kinds (Table 1's 'log entries')."""
        return len(self.downloads) + len(self.logins) + len(self.registrations)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LogStore downloads={len(self.downloads)} logins={len(self.logins)} "
            f"registrations={len(self.registrations)}>"
        )
