package daemon

// Prometheus text exposition for the daemon's Snapshot, stdlib only: the
// format is plain "name{labels} value" lines, so no client library is
// needed to serve it or to scrape it.

import (
	"fmt"
	"net/http"
)

// MetricsHandler serves the daemon's counters in Prometheus text
// exposition format on any mux path (conventionally /metrics).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := s.Snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

		p("# HELP nvramd_uptime_seconds Wall-clock seconds since the daemon started.\n")
		p("# TYPE nvramd_uptime_seconds gauge\n")
		p("nvramd_uptime_seconds %g\n", float64(snap.UptimeUS)/1e6)
		p("# HELP nvramd_connections Open client connections.\n")
		p("# TYPE nvramd_connections gauge\n")
		p("nvramd_connections %d\n", snap.Conns)
		p("# HELP nvramd_requests_total Requests by verdict.\n")
		p("# TYPE nvramd_requests_total counter\n")
		p("nvramd_requests_total{status=\"ok\"} %d\n", snap.RequestsOK)
		p("nvramd_requests_total{status=\"parked\"} %d\n", snap.Parked)
		p("nvramd_requests_total{status=\"shed\"} %d\n", snap.Shed)
		p("nvramd_requests_total{status=\"draining\"} %d\n", snap.Draining)
		p("nvramd_requests_total{status=\"bad\"} %d\n", snap.BadRequests)
		p("# HELP nvramd_shed_bytes_total Write bytes refused under overload.\n")
		p("# TYPE nvramd_shed_bytes_total counter\n")
		p("nvramd_shed_bytes_total %d\n", snap.ShedBytes)
		p("# HELP nvramd_connection_panics_total Handler panics isolated to one connection.\n")
		p("# TYPE nvramd_connection_panics_total counter\n")
		p("nvramd_connection_panics_total %d\n", snap.Panics)
		p("# HELP nvramd_apply_latency_microseconds Server-side apply latency quantiles.\n")
		p("# TYPE nvramd_apply_latency_microseconds gauge\n")
		p("nvramd_apply_latency_microseconds{quantile=\"0.5\"} %d\n", snap.ApplyP50US)
		p("nvramd_apply_latency_microseconds{quantile=\"0.99\"} %d\n", snap.ApplyP99US)
		p("# HELP nvramd_applied_ops_total Canonical operations applied to the cache models.\n")
		p("# TYPE nvramd_applied_ops_total counter\n")
		p("nvramd_applied_ops_total %d\n", snap.AppliedOps)

		// The conservation law, term by term: offered = committed + lost
		// + pending, with pending split by residence.
		f := snap.Faults
		p("# HELP nvramd_writeback_bytes Conservation-law byte counters of the fault stage.\n")
		p("# TYPE nvramd_writeback_bytes counter\n")
		p("nvramd_writeback_bytes{kind=\"offered\"} %d\n", f.OfferedBytes)
		p("nvramd_writeback_bytes{kind=\"committed\"} %d\n", f.CommittedBytes)
		p("nvramd_writeback_bytes{kind=\"lost\"} %d\n", f.LostBytes)
		p("# HELP nvramd_pending_bytes Undelivered write-back backlog by residence.\n")
		p("# TYPE nvramd_pending_bytes gauge\n")
		p("nvramd_pending_bytes{residence=\"nvram\"} %d\n", snap.PendingStable)
		p("nvramd_pending_bytes{residence=\"volatile\"} %d\n", snap.PendingVolatile)
		p("# HELP nvramd_restored_bytes_total Parked bytes re-adopted from the durable image at startup.\n")
		p("# TYPE nvramd_restored_bytes_total counter\n")
		p("nvramd_restored_bytes_total %d\n", snap.RestoredBytes)
		p("# HELP nvramd_writeback_attempts_total RPC attempts by the retry scheduler.\n")
		p("# TYPE nvramd_writeback_attempts_total counter\n")
		p("nvramd_writeback_attempts_total %d\n", f.Attempts)
		p("# HELP nvramd_writeback_retries_total Attempts beyond each delivery's first.\n")
		p("# TYPE nvramd_writeback_retries_total counter\n")
		p("nvramd_writeback_retries_total %d\n", f.Retries)
		p("# HELP nvramd_nvram_highwater_bytes Peak bytes parked in NVRAM awaiting recovery.\n")
		p("# TYPE nvramd_nvram_highwater_bytes gauge\n")
		p("nvramd_nvram_highwater_bytes %d\n", f.NVRAMHighWater)

		// Group commit: deliveries / batches is the mean batch size, and
		// a batch that appended to the image costs two msyncs.
		p("# HELP nvramd_writeback_batches_total Batches the write-back goroutine has committed, one barrier each.\n")
		p("# TYPE nvramd_writeback_batches_total counter\n")
		p("nvramd_writeback_batches_total %d\n", snap.WritebackBatches)
		p("# HELP nvramd_writeback_batch_deliveries_total Write-backs and park requests handled in those batches.\n")
		p("# TYPE nvramd_writeback_batch_deliveries_total counter\n")
		p("nvramd_writeback_batch_deliveries_total %d\n", snap.BatchDeliveries)
		im := snap.Image
		p("# HELP nvramd_image_msyncs_total msync calls on the durable image since open.\n")
		p("# TYPE nvramd_image_msyncs_total counter\n")
		p("nvramd_image_msyncs_total %d\n", im.Msyncs)
		p("# HELP nvramd_image_msync_seconds_total Time spent inside those msync calls.\n")
		p("# TYPE nvramd_image_msync_seconds_total counter\n")
		p("nvramd_image_msync_seconds_total %g\n", float64(im.MsyncNanos)/1e9)
		p("# HELP nvramd_image_records_total Log records appended to the image.\n")
		p("# TYPE nvramd_image_records_total counter\n")
		p("nvramd_image_records_total %d\n", im.Records)
		p("# HELP nvramd_image_appended_bytes_total Log bytes appended to the image, padding included.\n")
		p("# TYPE nvramd_image_appended_bytes_total counter\n")
		p("nvramd_image_appended_bytes_total %d\n", im.AppendedBytes)
		p("# HELP nvramd_image_compactions_total Image compactions.\n")
		p("# TYPE nvramd_image_compactions_total counter\n")
		p("nvramd_image_compactions_total %d\n", im.Compactions)
		p("# HELP nvramd_gomaxprocs Ps the Go runtime schedules on; nvramd keeps it at 2 or more.\n")
		p("# TYPE nvramd_gomaxprocs gauge\n")
		p("nvramd_gomaxprocs %d\n", snap.GOMAXPROCS)
	})
}
