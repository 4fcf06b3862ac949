package dist

import (
	"fmt"

	"adhocsim/internal/campaign"
	"adhocsim/internal/scenario"
	"adhocsim/internal/stats"
)

// The coordinator/worker wire protocol. All endpoints are JSON over HTTP:
//
//	POST /dist/lease                request one run unit       → 200 LeaseGrant | 204 no work
//	POST /dist/renew                heartbeat a lease          → 200 RenewResponse | 410 lease lost
//	POST /dist/release              give an unleased unit back → 204
//	POST /dist/commit               deliver a result           → 200 CommitResponse |
//	                                409 CommitResponse carrying the winning result on duplicates
//	GET  /dist/campaigns/{id}/spec  fetch the campaign spec    → 200 SpecResponse
//	GET  /dist/status               coordinator introspection  → 200 StatusResponse
//
// A worker never receives scenario objects per unit: it fetches the spec
// once per campaign, expands it locally into the identical plan (seeds and
// cell grids are content-derived, so expansion is reproducible anywhere),
// and verifies the plan hash against the coordinator's before executing
// anything — version skew between binaries is caught before it can corrupt
// an aggregate.

// LeaseRequest asks the coordinator for one unit of work.
type LeaseRequest struct {
	// Worker identifies the requesting process (diagnostics only; the
	// lease id is the capability).
	Worker string `json:"worker"`
}

// LeaseGrant hands a worker one run unit under a deadline.
type LeaseGrant struct {
	LeaseID  string `json:"lease_id"`
	Campaign string `json:"campaign"`
	SpecHash string `json:"spec_hash"`
	Cell     int    `json:"cell"`
	Rep      int    `json:"rep"`
	// Seed is the coordinator's derived seed for the unit; the worker
	// cross-checks it against its own derivation as a cheap integrity
	// probe on top of the spec-hash comparison.
	Seed int64 `json:"seed"`
	// TTLMs is the lease duration; the worker renews at TTL/3 cadence.
	TTLMs int64 `json:"ttl_ms"`
}

// RenewRequest heartbeats a lease.
type RenewRequest struct {
	LeaseID string `json:"lease_id"`
}

// RenewResponse confirms a renewal.
type RenewResponse struct {
	TTLMs int64 `json:"ttl_ms"`
}

// ReleaseRequest returns an incomplete unit (graceful worker shutdown,
// cancelled run) so the coordinator can re-issue it immediately instead of
// waiting for the lease to expire.
type ReleaseRequest struct {
	LeaseID string `json:"lease_id"`
}

// CommitRequest delivers one executed unit's results.
type CommitRequest struct {
	// LeaseID, when present, releases the lease with the commit. A commit
	// is accepted even without a live lease: a worker that outlived its
	// deadline still did correct work, and the engine keeps the first
	// result per unit regardless.
	LeaseID  string        `json:"lease_id,omitempty"`
	Worker   string        `json:"worker,omitempty"`
	Campaign string        `json:"campaign"`
	SpecHash string        `json:"spec_hash"`
	Cell     int           `json:"cell"`
	Rep      int           `json:"rep"`
	Results  stats.Results `json:"results"`
}

// CommitResponse reports a commit's fate. On a duplicate (HTTP 409) it
// carries the winning result so the committer can reconcile instead of
// treating the conflict as an error.
type CommitResponse struct {
	Committed bool           `json:"committed"`
	Results   *stats.Results `json:"results,omitempty"`
}

// SpecResponse lets a worker reconstruct a campaign's plan. Spec is the
// submitted spec with defaults resolved; Scenario is the fully-resolved
// base scenario (the spec's Go-side Scenario override is not serializable,
// so the resolved form travels explicitly and is re-attached before
// expansion). Hash is the coordinator's plan hash the worker must match.
type SpecResponse struct {
	Spec     campaign.Spec  `json:"spec"`
	Scenario *scenario.Spec `json:"scenario"`
	Hash     string         `json:"hash"`
}

// Plan reconstructs the campaign plan a coordinator expanded, verifying
// the hash. Shared by the worker and tests.
func (sr *SpecResponse) Plan() (*campaign.Plan, error) {
	spec := sr.Spec
	spec.Scenario = sr.Scenario
	plan, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if plan.Hash != sr.Hash {
		return nil, fmt.Errorf("dist: local plan hash %.12s… does not match coordinator's %.12s… (version skew?)",
			plan.Hash, sr.Hash)
	}
	return plan, nil
}

// StatusResponse is the coordinator's introspection view.
type StatusResponse struct {
	Campaigns int `json:"campaigns"`
	Running   int `json:"running"`
	// Leases is the number of currently outstanding worker leases.
	Leases int `json:"leases"`
	// Pending is the number of re-issue-queued units across campaigns.
	Pending int `json:"pending"`
}
