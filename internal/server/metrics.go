package server

import (
	"io"
	"runtime"
	"strconv"

	"repro/internal/metrics"
)

// WritePrometheus renders the fleet's one metrics registry — the
// tier's families registered below beside everything the stacks,
// session managers and the fleet publish — as Prometheus text format
// 0.0.4. The error of a scraper that went away is dropped.
func (s *Server) WritePrometheus(w io.Writer) {
	_ = s.fleet.Metrics().WritePrometheus(w)
}

// register publishes the tier's own counters: request outcomes, the
// admission gate, one write breaker per shard, and the wall-clock
// stage and per-op latency histograms of served requests.
func (s *Server) register(reg *metrics.Registry) {
	reg.Counter("xftl_requests_served_total", "Data-path requests completed successfully.", s.served.Load)
	reg.Counter("xftl_requests_failed_total", "Data-path requests failed (sheds, deadlines, errors).", s.failed.Load)
	reg.Counter("xftl_admitted_total", "Requests admitted past the admission gate.", s.adm.stats.Admitted.Load)
	reg.Counter("xftl_shed_total", "Requests shed by the admission gate.", s.adm.stats.Shed.Load)
	reg.Counter("xftl_deadline_drops_total", "Requests dropped on deadline while queued.", s.adm.stats.DeadlineDrops.Load)
	reg.Gauge("xftl_in_flight", "Requests holding an admission slot right now.", func() int64 { return int64(s.adm.inFlight()) })
	reg.Gauge("xftl_open_txns", "Transactions currently open.", s.openTxns.Load)
	for i, b := range s.brks {
		shard := strconv.Itoa(i)
		reg.Counter("xftl_degraded_sheds_total", "Writes shed by an open write breaker.", b.writeSheds.Load, "shard", shard)
		reg.Counter("xftl_breaker_trips_total", "Write breaker closed-to-open transitions.", b.openTrips.Load, "shard", shard)
		reg.Gauge("xftl_breaker_open", "1 while the shard's write breaker is open.", func() int64 {
			if b.open.Load() {
				return 1
			}
			return 0
		}, "shard", shard)
	}
	for i := range s.stageLat {
		reg.Histogram("xftl_stage_duration_seconds", "Wall time served requests spent per pipeline stage.",
			&s.stageLat[i], "stage", stageNames[i])
	}
	for i := range s.opLat {
		reg.Histogram("xftl_op_duration_seconds", "Wall latency of served data-path requests by op.",
			&s.opLat[i], "op", opHistNames[i])
	}
	// Build and configuration identity, Prometheus-idiom: constant 1
	// with the interesting facts as labels.
	reg.Gauge("xftl_build_info", "Build and configuration identity (value is always 1).", func() int64 { return 1 },
		"go_version", runtime.Version(), "shards", strconv.Itoa(s.fleet.Shards()), "queue_depth", strconv.Itoa(queueDepth))
}
