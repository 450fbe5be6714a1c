"""The measurement study: log schemas, store, and every analysis in §4–§6."""

from repro.analysis.benefits import (
    OffloadSummary, busiest_ases, figure4_speed_cdfs,
    figure5_efficiency_vs_copies, figure6_efficiency_vs_peers,
    figure7_pause_rates, figure8_country_contributions, offload_summary,
    reliability_outcomes, table3_setting_changes,
    table4_upload_enabled_by_provider, trace_offload,
)
from repro.analysis.export import Anonymizer, export_trace, import_trace
from repro.analysis.faults import fault_impact, window_outcomes
from repro.analysis.guid_graphs import (
    MobilitySummary, build_secondary_guid_graphs, classify_graph,
    figure12_pattern_census, mobility_summary,
)
from repro.analysis.logstore import LogStore
from repro.analysis.qoe import (
    peak_hour_transit, peak_transit_total, qoe_summary, streamed_records,
)
from repro.analysis.overview import (
    OverallStatistics, figure2_peer_distribution, table1_overall_statistics,
    table2_provider_regions,
)
from repro.analysis.records import (
    DownloadRecord, LoginRecord, RegistrationRecord,
    FAILURE_OTHER, FAILURE_SYSTEM,
    OUTCOME_ABORTED, OUTCOME_COMPLETED, OUTCOME_FAILED,
)
from repro.analysis.report import (
    human_bytes, pct, render_comparison, render_series, render_table,
)
from repro.analysis.stats import (
    cdf_points, mean, percentile,
)
from repro.analysis.traffic import (
    locality_shares,
    TrafficMatrix, build_traffic_matrix, figure9a_upload_cdf,
    figure9b_cumulative_contribution, figure9c_ips_per_as,
    figure10_balance_scatter, figure11_pair_balance, heavy_uploader_ases,
)
from repro.analysis.workload_analysis import (
    figure3a_size_cdfs, figure3b_popularity, figure3c_bytes_over_time,
    fraction_of_requests_above, power_law_exponent,
)

__all__ = [
    "LogStore",
    "Anonymizer", "export_trace", "import_trace",
    "DownloadRecord", "LoginRecord", "RegistrationRecord",
    "OUTCOME_COMPLETED", "OUTCOME_FAILED", "OUTCOME_ABORTED",
    "FAILURE_SYSTEM", "FAILURE_OTHER",
    "OverallStatistics", "table1_overall_statistics",
    "table2_provider_regions", "figure2_peer_distribution",
    "figure3a_size_cdfs", "figure3b_popularity", "figure3c_bytes_over_time",
    "fraction_of_requests_above", "power_law_exponent",
    "OffloadSummary", "offload_summary", "trace_offload",
    "table3_setting_changes", "table4_upload_enabled_by_provider",
    "busiest_ases", "figure4_speed_cdfs",
    "figure5_efficiency_vs_copies", "figure6_efficiency_vs_peers",
    "figure7_pause_rates", "reliability_outcomes",
    "figure8_country_contributions",
    "window_outcomes", "fault_impact",
    "TrafficMatrix", "build_traffic_matrix",
    "figure9a_upload_cdf", "figure9b_cumulative_contribution",
    "figure9c_ips_per_as", "figure10_balance_scatter",
    "figure11_pair_balance", "heavy_uploader_ases", "locality_shares",
    "MobilitySummary", "mobility_summary",
    "build_secondary_guid_graphs", "classify_graph", "figure12_pattern_census",
    "qoe_summary", "streamed_records", "peak_hour_transit",
    "peak_transit_total",
    "cdf_points", "percentile", "mean",
    "render_table", "render_series", "render_comparison", "pct", "human_bytes",
]
