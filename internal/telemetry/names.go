package telemetry

// Canonical metric names. Instrumented packages and readers (the explain
// report, the exporter tests) share these constants so a rename cannot
// silently desynchronize producer and consumer.
const (
	// Planner / search engine.
	MPlanSolves          = "astra_plan_solves_total"
	MPlanCalibrations    = "astra_plan_calibration_rounds_total"
	MDAGBuilds           = "astra_dag_builds_total"
	MDAGNodes            = "astra_dag_nodes"
	MDAGEdges            = "astra_dag_edges"
	MSearchDijkstraRuns  = "astra_search_dijkstra_runs_total"
	MSearchEdgesRelaxed  = "astra_search_edges_relaxed_total"
	MAlg1Rounds          = "astra_algorithm1_rounds_total"
	MAlg1EdgesRemoved    = "astra_algorithm1_edges_removed_total"
	MCSPLabelsPopped     = "astra_csp_labels_popped_total"
	MCSPLabelsAllocated  = "astra_csp_labels_allocated_total"
	MCSPBoundPrunes      = "astra_csp_bound_prunes_total"
	MCSPMemoHits         = "astra_csp_memo_hits_total"
	MFrontierPhases      = "astra_frontier_phases_total"
	MFrontierSearches    = "astra_frontier_searches_total"
	MFrontierPruned      = "astra_frontier_pruned_total"
	MSearchScratchReuse  = "astra_search_scratch_reuse_total"
	MDAGScratchReuse     = "astra_dag_build_scratch_reuse_total"
	MPoolBatches         = "astra_pool_batches_total"
	MPoolSerialDegrades  = "astra_pool_serial_degrades_total"
	MPoolTasks           = "astra_pool_tasks_total"
	MPoolWorkersPeak     = "astra_pool_workers_peak"
	MPoolBatchSize       = "astra_pool_batch_size"
	MPoolQueueDepthPeak  = "astra_pool_queue_depth_peak"
	MPoolBusyWorkersPeak = "astra_pool_busy_workers_peak"

	// DAG-template cache (shared frozen CSR graphs across planner
	// instances): a hit skips BuildContext entirely, a wait is a caller
	// that blocked on another goroutine's in-flight build (singleflight).
	MPlanTemplateHits      = "astra_plan_template_hits_total"
	MPlanTemplateMisses    = "astra_plan_template_misses_total"
	MPlanTemplateBuilds    = "astra_plan_template_builds_total"
	MPlanTemplateEvictions = "astra_plan_template_evictions_total"
	MPlanTemplateWaits     = "astra_plan_template_waits_total"
	MPlanTemplateEntries   = "astra_plan_template_entries"

	// Prediction-cache traffic: each plan and each frontier sweep adds
	// its own tally (model.PredictionCache.Tally) once, when it ends.
	MPredCacheHits      = "astra_predcache_hits_total"
	MPredCacheMisses    = "astra_predcache_misses_total"
	MPredCacheEvictions = "astra_predcache_evictions_total"

	// Batch planning front-end.
	MBatchPlans  = "astra_batch_plans_total"
	MBatchErrors = "astra_batch_plan_errors_total"

	// Platform: lambda control plane.
	MLambdaInvocations     = "astra_lambda_invocations_total"
	MLambdaColdStarts      = "astra_lambda_cold_starts_total"
	MLambdaTimeouts        = "astra_lambda_timeouts_total"
	MLambdaErrors          = "astra_lambda_errors_total"
	MLambdaRetries         = "astra_lambda_retries_total"
	MLambdaDurationSeconds = "astra_lambda_duration_seconds"
	MLambdaQueuedSeconds   = "astra_lambda_queued_seconds"
	MLambdaConcurrencyPeak = "astra_lambda_concurrency_peak"

	// Flight-recorder audit (model-accuracy gauges). Gauges are int64, so
	// percentages are exported as integer per-mille and absolute time
	// errors as nanoseconds; per-stage gauges are derived via
	// flight.StageGauge.
	MAuditStages            = "astra_audit_stages"
	MAuditJCTAbsErrorNanos  = "astra_audit_jct_abs_error_ns"
	MAuditJCTErrorPermille  = "astra_audit_jct_error_permille"
	MAuditCostErrorPermille = "astra_audit_cost_error_permille"
	MAuditStageMAPEPermille = "astra_audit_stage_mape_permille"

	// Platform: object store.
	MStoreGets     = "astra_store_get_total"
	MStorePuts     = "astra_store_put_total"
	MStoreLists    = "astra_store_list_total"
	MStoreHeads    = "astra_store_head_total"
	MStoreDeletes  = "astra_store_delete_total"
	MStoreCopies   = "astra_store_copy_total"
	MStoreBytesIn  = "astra_store_bytes_in_total"
	MStoreBytesOut = "astra_store_bytes_out_total"

	// Chaos engine: injected faults, by site and effect. MChaosFaults is
	// the cross-target total (lambda attempts faulted + store requests
	// aborted).
	MChaosFaults           = "astra_chaos_faults_total"
	MChaosLambdaFaults     = "astra_chaos_lambda_faults_total"
	MChaosStoreFaults      = "astra_chaos_store_faults_total"
	MChaosStraggles        = "astra_chaos_straggles_total"
	MChaosForcedColdStarts = "astra_chaos_forced_cold_starts_total"
	MChaosThrottleRejects  = "astra_chaos_throttle_rejects_total"

	// Speculative execution (driver-side straggler mitigation).
	MSpecLaunched  = "astra_speculation_backups_launched_total"
	MSpecWins      = "astra_speculation_wins_total"
	MSpecLosses    = "astra_speculation_losses_total"
	MSpecCancelled = "astra_speculation_cancelled_total"
	MSpecCommits   = "astra_speculation_commits_total"

	// Go runtime health, published by the obs package's sampler from
	// runtime/metrics so a /metrics scrape shows the process itself, not
	// just the simulation. Histograms translate the runtime's aggregated
	// distributions via bucket-count deltas (Histogram.ObserveN).
	MGoGoroutines       = "astra_go_goroutines"
	MGoHeapObjectsBytes = "astra_go_heap_objects_bytes"
	MGoMemTotalBytes    = "astra_go_mem_total_bytes"
	MGoGCCycles         = "astra_go_gc_cycles"
	MGoGCPauseSeconds   = "astra_go_gc_pause_seconds"
	MGoSchedLatSeconds  = "astra_go_sched_latency_seconds"
	MGoSamples          = "astra_go_samples_total"

	// Observability server: per-endpoint request counters (labeled
	// series via LabelSeries("astra_obs_http_requests_total", "path",
	// ...)), live SSE client gauge, and events dropped past slow SSE
	// clients (ring overwrites observed as sequence gaps).
	MObsHTTPRequests = "astra_obs_http_requests_total"
	MObsSSEClients   = "astra_obs_sse_clients"
	MObsSSEDropped   = "astra_obs_sse_dropped_total"

	// Streaming QoS monitor (internal/qos). State encodes the risk
	// verdict as an integer (0 on_track, 1 at_risk, 2 breached); times
	// are virtual nanoseconds, dollar amounts integer micro-USD. The SLO
	// counters aggregate ledger outcomes across runs; per-(tenant, job)
	// series are derived via LabelSeries(..., "key", tenant+"/"+job).
	MQoSState             = "astra_qos_state"
	MQoSProjectedJCTNanos = "astra_qos_projected_jct_ns"
	MQoSPredictedJCTNanos = "astra_qos_predicted_jct_ns"
	MQoSDeadlineNanos     = "astra_qos_deadline_ns"
	MQoSSlackNanos        = "astra_qos_slack_ns"
	MQoSSlipNanos         = "astra_qos_slip_ns"
	MQoSTransitions       = "astra_qos_transitions_total"
	MQoSDriftedTerms      = "astra_qos_drifted_terms"
	MQoSSpentMicroUSD     = "astra_qos_cost_spent_microusd"
	MQoSPredictedMicroUSD = "astra_qos_cost_predicted_microusd"
	MQoSWastedMicroUSD    = "astra_qos_cost_wasted_microusd"
	MQoSSLORuns           = "astra_qos_slo_runs_total"
	MQoSSLOAttained       = "astra_qos_slo_attained_total"
	MQoSSLOBreached       = "astra_qos_slo_breached_total"

	// Planning-as-a-service control plane (internal/server). Request
	// counters are labeled series (LabelSeries(MServerRequests,
	// "endpoint", ...), LabelSeries(MServerTenantRequests, "tenant", ...),
	// rejects by tenant+reason); the respcache family counts the TTL'd
	// response cache that sits above the template/prediction caches.
	MServerRequests           = "astra_server_requests_total"
	MServerTenantRequests     = "astra_server_tenant_requests_total"
	MServerRejects            = "astra_server_admission_rejects_total"
	MServerQueueDepth         = "astra_server_queue_depth"
	MServerInFlight           = "astra_server_in_flight"
	MServerRespCacheHits      = "astra_server_respcache_hits_total"
	MServerRespCacheMisses    = "astra_server_respcache_misses_total"
	MServerRespCacheExpired   = "astra_server_respcache_expired_total"
	MServerRespCacheEvictions = "astra_server_respcache_evictions_total"
	MServerRespCacheEntries   = "astra_server_respcache_entries"
	// MServerPanics counts /v1 handlers that panicked and were answered
	// 500 instead of dropping the connection.
	MServerPanics = "astra_server_panics_total"
)
