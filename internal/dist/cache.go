package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"adhocsim/internal/campaign"
	"adhocsim/internal/metrics"
	"adhocsim/internal/stats"
)

// Store is the content-addressed result cache the coordinator hands to each
// campaign, which serves units from it, saves live results and keeps its
// cells' folds there; see campaign.Store.
type Store = campaign.Store

// MemStore is an in-memory Store: per-process reuse and tests. It keeps
// each result decoded and encoded (about 5 KB more per entry with stream
// digests), because decoding a hit would cost more than encoding it does.
type MemStore struct {
	mu sync.Mutex
	m  map[string]memEntry
}

type memEntry struct {
	res stats.Results
	enc []byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string]memEntry)}
}

// Load looks a key up; enc is nil when the result was saved without one.
// Entries are returned as saved, unchecked.
func (s *MemStore) Load(key string, _ metrics.Geometry) (stats.Results, []byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	return e.res, e.enc, ok, nil
}

// Save stores a result and its encoding (nil when the caller has none).
func (s *MemStore) Save(key string, res stats.Results, enc []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = memEntry{res, enc}
	return nil
}

// Put is Save without an encoding, kept because the benchmark's tests seed
// a store with it.
func (s *MemStore) Put(key string, res stats.Results) error { return s.Save(key, res, nil) }

// FSStore is a filesystem-backed Store: one JSON file per result at
// <dir>/<key[:2]>/<key>.json (the two-character fan-out keeps directories
// small at scale). The file holds the result's encoding, so a hit returns
// the file bytes as enc. Writes are atomic — a temp file renamed into
// place — so concurrent writers of the same key and crashes mid-write can
// never leave a torn entry visible; a corrupt file (external tampering)
// reads as a miss, never as a wrong result, because the key is
// content-derived but the payload is re-validated only by JSON shape.
type FSStore struct {
	dir string
}

// NewFSStore creates (if needed) the cache directory and returns the store.
func NewFSStore(dir string) (*FSStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: creating result cache dir: %w", err)
	}
	return &FSStore{dir: dir}, nil
}

func (s *FSStore) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Load looks a key up, a unit's or a cell fold's alike. Absent files are
// misses, and so are files that do not decode, that hold a malformed
// sketch or a time series of another geometry than series, or that hold a
// newline: enc must fit inside one journal line, so a hand-edited entry
// can never tear one.
func (s *FSStore) Load(key string, series metrics.Geometry) (stats.Results, []byte, bool, error) {
	return s.load(key, &series)
}

// load is Load; a nil series skips the time series' geometry check.
func (s *FSStore) load(key string, series *metrics.Geometry) (stats.Results, []byte, bool, error) {
	if len(key) < 2 {
		return stats.Results{}, nil, false, fmt.Errorf("dist: malformed cache key %q", key)
	}
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return stats.Results{}, nil, false, nil
	}
	if err != nil {
		return stats.Results{}, nil, false, fmt.Errorf("dist: reading cache entry: %w", err)
	}
	if bytes.IndexByte(data, '\n') >= 0 {
		return stats.Results{}, nil, false, nil
	}
	var res stats.Results
	if err = json.Unmarshal(data, &res); err == nil {
		if series != nil {
			err = res.Streams.Check(*series)
		} else {
			err = res.Streams.Validate()
		}
	}
	if err != nil {
		return stats.Results{}, nil, false, nil // corrupt entry: treat as a miss
	}
	return res, data, true, nil
}

// Save stores a result atomically, writing enc as it is; only a nil enc
// is encoded here.
func (s *FSStore) Save(key string, res stats.Results, enc []byte) error {
	if len(key) < 2 {
		return fmt.Errorf("dist: malformed cache key %q", key)
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("dist: creating cache shard: %w", err)
	}
	if enc == nil {
		var err error
		if enc, err = json.Marshal(res); err != nil {
			return fmt.Errorf("dist: encoding cache entry: %w", err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("dist: writing cache entry: %w", err)
	}
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("dist: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dist: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dist: publishing cache entry: %w", err)
	}
	return nil
}

// Get is Load without the encoding or the geometry check, kept because the
// benchmark's store probe times it.
func (s *FSStore) Get(key string) (stats.Results, bool, error) {
	res, _, found, err := s.load(key, nil)
	return res, found, err
}

// Put is Save without an encoding, kept because the benchmark's store
// probe times it.
func (s *FSStore) Put(key string, res stats.Results) error { return s.Save(key, res, nil) }
