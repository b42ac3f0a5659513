package offload

import "repro/internal/telemetry"

// serverMetrics bundles the offload server's RED-style instruments:
// request rate (epochs served, frame bytes), errors (rejections,
// evictions, connection errors), and duration (framework step latency
// histogram). Built from a nil registry every instrument is nil, and
// nil instruments are no-ops — the uninstrumented server pays only a
// predictable nil check per update.
type serverMetrics struct {
	sessionsOpened   *telemetry.Counter
	sessionsClosed   *telemetry.Counter
	sessionsRejected *telemetry.Counter
	sessionsEvicted  *telemetry.Counter
	sessionsActive   *telemetry.Gauge
	epochsServed     *telemetry.Counter
	bytesIn          *telemetry.Counter
	bytesOut         *telemetry.Counter
	connErrors       *telemetry.Counter
	stepLatency      *telemetry.Histogram
	surveysIngested  *telemetry.Counter
	surveysDropped   *telemetry.Counter
	deadlineTimeouts *telemetry.Counter
	acceptErrors     *telemetry.Counter
	sessionsDrained  *telemetry.Counter

	// Protocol v4 resume instruments.
	sessionsDetached *telemetry.Counter
	sessionsResumed  *telemetry.Counter
	epochsReplayed   *telemetry.Counter
	replayEvictions  *telemetry.Counter

	// Cross-node failover instruments.
	sessionsInjected *telemetry.Counter
	injectFailures   *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	return serverMetrics{
		sessionsOpened:   reg.Counter("uniloc_sessions_opened_total", "sessions accepted since start"),
		sessionsClosed:   reg.Counter("uniloc_sessions_closed_total", "sessions ended, including evictions"),
		sessionsRejected: reg.Counter("uniloc_sessions_rejected_total", "hellos refused at the session limit"),
		sessionsEvicted:  reg.Counter("uniloc_sessions_evicted_total", "sessions closed by the idle reaper"),
		sessionsActive:   reg.Gauge("uniloc_sessions_active", "sessions live right now"),
		epochsServed:     reg.Counter("uniloc_epochs_served_total", "sensing epochs processed across all sessions"),
		bytesIn:          reg.Counter("uniloc_frame_bytes_total", "protocol frame bytes", "dir", "in"),
		bytesOut:         reg.Counter("uniloc_frame_bytes_total", "protocol frame bytes", "dir", "out"),
		connErrors:       reg.Counter("uniloc_conn_errors_total", "connections that ended with a transport or protocol error"),
		stepLatency:      reg.Histogram("uniloc_step_seconds", "Framework.Step latency per served epoch", telemetry.DefBuckets()),
		surveysIngested:  reg.Counter("uniloc_surveys_ingested_total", "crowdsourced survey points accepted into a shared map store"),
		surveysDropped:   reg.Counter("uniloc_surveys_dropped_total", "survey submissions rejected (unknown map, no store, or unusable vector)"),
		deadlineTimeouts: reg.Counter("deadline_timeouts_total", "protocol reads/writes that hit their deadline"),
		acceptErrors:     reg.Counter("accept_errors_total", "transient listener Accept failures retried with backoff"),
		sessionsDrained:  reg.Counter("uniloc_sessions_drained_total", "connections closed by a graceful drain"),

		sessionsDetached: reg.Counter("uniloc_sessions_detached_total", "v4 sessions parked for resume after a transport error"),
		sessionsResumed:  reg.Counter("uniloc_sessions_resumed_total", "v4 re-handshakes re-attached to a detached session"),
		epochsReplayed:   reg.Counter("resume_replays_total", "duplicate epochs answered from the per-seq result cache without re-stepping"),
		replayEvictions:  reg.Counter("uniloc_replay_evictions_total", "replay-cache entries evicted at the per-session bound"),

		sessionsInjected: reg.Counter("uniloc_sessions_injected_total", "sessions materialized from a peer's handoff blob (cross-node resumes)"),
		injectFailures:   reg.Counter("uniloc_inject_failures_total", "handoff injections refused (bad blob, restore failure, or session limit)"),
	}
}
