package campaign

import (
	"crypto/sha256"
	"encoding/hex"

	"adhocsim/internal/metrics"
	"adhocsim/internal/stats"
)

// Store is the content-addressed result cache: run results keyed by
// Plan.UnitKey — a digest of the fully-resolved scenario, protocol, and
// derived seed, i.e. of everything that determines the result. Because
// runs are deterministic, a hit is exactly the result a re-execution
// would produce, so a campaign given a store (SetStore) serves every unit
// the store holds instead of handing it out (NextUnit), and resubmitted or
// overlapping campaigns reuse finished runs instead of recomputing them.
// It keeps each cell's fold in the store as well, under a cell key (see
// cellKey).
//
// A result travels with its encoding: enc is nil or json.Marshal(res)'s
// output — more precisely, JSON that decodes to res and contains no
// newline, so the journal can embed it verbatim as part of one line. The
// campaign saves the bytes its journal wrote on a live commit and
// journals the loaded bytes on a hit, so a stored unit is never encoded
// again. Callers must not modify enc.
//
// series is the geometry the entry's time series must have
// (Plan.SeriesGeometry; a cell's fold has its units' geometry). A store
// that reads entries from outside the process checks a hit's stream
// digests against it and reports an entry that fails as a miss; results
// are checked where they enter, so what a store holds in memory came
// through that check.
//
// Implementations must be safe for concurrent use. Load reports a miss
// with found == false; errors are reserved for real faults (I/O), and
// the campaign degrades a faulty store to a miss.
type Store interface {
	Load(key string, series metrics.Geometry) (res stats.Results, enc []byte, found bool, err error)
	Save(key string, res stats.Results, enc []byte) error
}

// SetStore hands the campaign its result store: NextUnit serves units
// from it, CompleteUnitEncoded saves live results in it, and settle keeps
// each cell's fold there. It must be called before Start.
func (c *Campaign) SetStore(s Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = s
}

// storedAs is a unit's key in the campaign's store, hashed once a
// campaign, and where its result stands: in reports that results[rep]
// lives there — served from it (served), or saved under the key when it
// landed live. A journal replay or a result handed straight to
// CompleteUnit is in no store.
type storedAs struct {
	key        string
	in, served bool
}

// keyLocked returns the store record of unit (ci, rep), hashing its key
// the first time the campaign meets it.
func (c *Campaign) keyLocked(ci, rep int) *storedAs {
	cs := &c.cells[ci]
	if cs.keys == nil {
		cs.keys = make([]storedAs, c.plan.Spec.MaxReps)
	}
	k := &cs.keys[rep]
	if k.key == "" {
		k.key = c.plan.UnitKey(ci, rep)
	}
	return k
}

// cellKeyVersion versions the fold entry: bump it when the fold's shape
// or arithmetic (foldStreams, stats.MergeResults, the entry's layout)
// changes, so entries of the old fold read as misses.
const cellKeyVersion = "adhocsim/cell-fold/v1\n"

// cellKey is the store key of a cell's fold: the SHA-256 digest of
// cellKeyVersion and the unit keys of its committed replications in
// replication order. Those units determine the fold, so the key is a
// content address like theirs. It is "" when the campaign has no store or
// a committed replication is in none. served reports that every committed
// replication was served from the store in this campaign: only then may
// the fold be read from it, because only then is the entry the fold of
// the very results the store holds, checked as they were (a journal
// replay or a Go caller's result may differ from the store's).
func (c *Campaign) cellKey(cs *cellState) (key string, served bool) {
	if cs.keys == nil || cs.committed == 0 {
		return "", false
	}
	b := make([]byte, 0, len(cellKeyVersion)+cs.committed*sha256.Size*2)
	b = append(b, cellKeyVersion...)
	served = true
	for _, k := range cs.keys[:cs.committed] {
		if !k.in {
			return "", false
		}
		b = append(b, k.key...) // fixed-length hex: no separator needed
		served = served && k.served
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), served
}

// foldEntry is the store entry of a cell's fold: the merged metric set,
// with the folded sketch states and series as its stream digests. Nothing
// in it aliases the cell's result.
func foldEntry(merged stats.Results, sketches map[string]*metrics.Sketch, series *metrics.SeriesState) stats.Results {
	e := merged.Clone()
	e.Streams = &metrics.RunStreams{Series: series.Clone()}
	if len(sketches) > 0 {
		e.Streams.Sketches = make(map[string]metrics.SketchState, len(sketches))
		for name, sk := range sketches {
			e.Streams.Sketches[name] = sk.State()
		}
	}
	return e
}

// fromFoldEntry unpacks a fold entry into a cell's merged metric set,
// percentiles and series, as private copies: a caller that changes them
// does not change the entry the next hit reads.
func fromFoldEntry(e stats.Results) (stats.Results, map[string]metrics.QuantileSummary, *metrics.SeriesState) {
	streams := e.Streams
	merged := e.Clone()
	merged.Streams = nil
	if streams == nil {
		return merged, nil, nil
	}
	return merged, streams.Quantiles(), streams.Series.Clone()
}
