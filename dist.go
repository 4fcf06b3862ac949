package adhocsim

import (
	"context"

	"adhocsim/internal/dist"
)

// Distributed campaign execution: a coordinator owns campaign lifecycle and
// aggregation while any number of worker processes lease run units over
// HTTP, execute them locally, and commit results back. Results are
// bit-identical (reflect.DeepEqual) to a single-process run of the same
// spec: seeds are content-derived, units are pure functions of the plan,
// and the coordinator commits replications in order. A content-addressed
// result cache short-circuits units whose results are already known, and a
// server-sent-events stream publishes live per-campaign progress.

// DistServer is the campaign coordinator: the single-process /campaigns
// HTTP API plus the worker lease/commit protocol and SSE progress streams.
type DistServer = dist.Server

// DistServerOptions configure a DistServer.
type DistServerOptions = dist.ServerOptions

// NewDistServer creates a coordinator and starts its lease reaper.
func NewDistServer(opts DistServerOptions) *DistServer {
	return dist.NewServer(opts)
}

// DistWorkerOptions configure a worker process.
type DistWorkerOptions = dist.WorkerOptions

// RunDistWorker joins a coordinator and executes leased run units until ctx
// is cancelled (gracefully: in-flight runs finish and commit first).
func RunDistWorker(ctx context.Context, opts DistWorkerOptions) error {
	return dist.RunWorker(ctx, opts)
}

// ResultStore is the content-addressed result cache interface.
type ResultStore = dist.Store

// NewMemResultStore creates an in-memory result cache.
func NewMemResultStore() ResultStore { return dist.NewMemStore() }

// NewFSResultStore creates (or reopens) a filesystem-backed result cache
// rooted at dir.
func NewFSResultStore(dir string) (ResultStore, error) { return dist.NewFSStore(dir) }
