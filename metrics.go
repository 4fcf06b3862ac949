package adhocsim

import (
	"io"

	"adhocsim/internal/metrics"
	"adhocsim/internal/stats"
)

// The streaming-metrics surface: runs can emit their raw metric events as a
// typed sample stream (RunConfig.Sinks) consumed by bounded-memory sinks —
// online quantile sketches, fixed-bucket time series, per-kind Welford
// cells, or a JSONL dump. See internal/metrics for the determinism and
// bounded-memory contracts.

// MetricKind labels what a MetricSample measures.
type MetricKind = metrics.Kind

// The metric sample taxonomy.
const (
	MetricOriginated = metrics.Originated
	MetricDelivered  = metrics.Delivered
	MetricDelaySec   = metrics.Delay
	MetricHops       = metrics.Hops
	MetricRoutingTx  = metrics.RoutingTx
	MetricDataTx     = metrics.DataTx
	MetricDropped    = metrics.Dropped
)

// MetricSample is one typed metric observation at a point in virtual time.
type MetricSample = metrics.Sample

// MetricSink consumes a run's sample stream; attach via RunConfig.Sinks.
type MetricSink = metrics.Sink

// NewSketchSink creates a MetricSink sketching the given kinds.
func NewSketchSink(compression float64, kinds ...MetricKind) *metrics.SketchSink {
	return metrics.NewSketchSink(compression, kinds...)
}

// NewWindowSink creates a MetricSink bucketing samples into at most
// maxBuckets fixed sim-time windows over [0, horizon).
func NewWindowSink(horizon Duration, maxBuckets int) *metrics.Window {
	return metrics.NewWindow(horizon, maxBuckets)
}

// NewJSONLSink creates a MetricSink dumping every sample as one JSON line;
// call Flush when the run completes.
func NewJSONLSink(w io.Writer) *metrics.JSONLWriter { return metrics.NewJSONLWriter(w) }

// NewWelfordSink creates a MetricSink keeping one Welford mean/variance cell
// per sample kind.
func NewWelfordSink() *stats.WelfordSink { return stats.NewWelfordSink() }
