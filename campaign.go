package adhocsim

import (
	"context"

	"adhocsim/internal/campaign"
)

// Campaign engine: multi-seed replication campaigns over the experiment API.
// A CampaignSpec (protocols × sweep axes × replication policy) expands into
// a run set executed on a work-stealing worker pool; each metric cell is
// aggregated online (Welford moments, Student-t 95% confidence intervals)
// and may stop replicating early once its estimates are tight enough.
// Completed runs are journaled to a JSONL checkpoint so an interrupted
// campaign resumes bit-identically. NewDistServer exposes the same engine
// over HTTP (see cmd/adhocd).

// CampaignSpec declares a replication campaign; see the campaign package.
type CampaignSpec = campaign.Spec

// CampaignScenarioPatch overrides study-default scenario fields in
// JSON-friendly units (the HTTP-facing half of CampaignSpec).
type CampaignScenarioPatch = campaign.ScenarioPatch

// CampaignOptions configure execution: worker count, checkpoint journal,
// progress callback.
type CampaignOptions = campaign.Options

// CampaignSnapshot is a live progress view of a running campaign.
type CampaignSnapshot = campaign.Snapshot

// CampaignProgress is one completed run and the progress view it left; see
// CampaignOptions.OnProgress.
type CampaignProgress = campaign.Progress

// CampaignResult is the final aggregate: per-cell merged Results plus
// per-metric summaries with 95% confidence half-widths.
type CampaignResult = campaign.Result

// RunCampaign expands and executes a campaign to completion (or
// cancellation) and returns its aggregate.
func RunCampaign(ctx context.Context, spec CampaignSpec, opts CampaignOptions) (*CampaignResult, error) {
	return campaign.Run(ctx, spec, opts)
}
