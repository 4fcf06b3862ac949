// Package modelreg is the one registry mechanism of the simulator. Its five
// users are core's routing-protocol table and the four scenario-model kinds
// (mobility, traffic, radio, lifecycle): a Registry is the case-insensitive
// named-builder table with a default entry, Models adds what every model
// kind needs on top — build by name with the kind's own validation hook and
// parameter discovery — and Params is the read-tracking parameter-map view
// builders consume. Registration semantics (name canonicalization,
// duplicate/nil rejection, error wording) therefore cannot drift between
// the five.
package modelreg

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"adhocsim/internal/sim"
)

// Canonical normalizes a model name: lower-case, trimmed.
func Canonical(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// CanonicalUpper normalizes a protocol name: upper-case, trimmed.
func CanonicalUpper(name string) string {
	return strings.ToUpper(strings.TrimSpace(name))
}

// Registry is a named-builder table. B is the builder function type.
type Registry[B any] struct {
	kind        string // "mobility" / "core": error-message prefix
	noun        string // "model" / "protocol": what errors call an entry
	defaultName string // resolved when a lookup name is empty; "" for none
	canonical   func(string) string

	mu sync.RWMutex
	m  map[string]B
}

// New creates a registry whose errors read "<kind>: … <noun> …", whose
// names are normalized by canonical, and whose empty-name lookups resolve
// to defaultName.
func New[B any](kind, noun, defaultName string, canonical func(string) string) *Registry[B] {
	return &Registry[B]{kind: kind, noun: noun, defaultName: defaultName, canonical: canonical, m: make(map[string]B)}
}

// Kind returns the registry's kind name ("mobility", "traffic", …).
func (r *Registry[B]) Kind() string { return r.kind }

// Default returns the name an empty lookup resolves to.
func (r *Registry[B]) Default() string { return r.defaultName }

// Register adds a builder under the given case-insensitive name.
// Registering an empty name, a nil builder, or a taken name is an error.
func (r *Registry[B]) Register(name string, b B) error {
	key := r.canonical(name)
	if key == "" {
		return fmt.Errorf("%s: empty %s name", r.kind, r.noun)
	}
	if rv := reflect.ValueOf(b); !rv.IsValid() || (rv.Kind() == reflect.Func && rv.IsNil()) {
		return fmt.Errorf("%s: nil builder for %s %q", r.kind, r.noun, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[key]; dup {
		return fmt.Errorf("%s: %s %q already registered", r.kind, r.noun, key)
	}
	r.m[key] = b
	return nil
}

// MustRegister is Register for built-ins, where failure is a programming
// error.
func (r *Registry[B]) MustRegister(name string, b B) {
	if err := r.Register(name, b); err != nil {
		panic(err)
	}
}

// Names returns every registered name, sorted.
func (r *Registry[B]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Known reports whether a name resolves (the empty name selects the
// default entry).
func (r *Registry[B]) Known(name string) bool {
	_, _, err := r.Lookup(name)
	return err == nil
}

// Lookup resolves a name (empty selects the default entry) to its builder
// and canonical name.
func (r *Registry[B]) Lookup(name string) (B, string, error) {
	key := r.canonical(name)
	if key == "" {
		key = r.defaultName
	}
	r.mu.RLock()
	b, ok := r.m[key]
	r.mu.RUnlock()
	if !ok {
		var zero B
		return zero, key, fmt.Errorf("%s: unknown %s %q (registered: %s)",
			r.kind, r.noun, name, strings.Join(r.Names(), ", "))
	}
	return b, key, nil
}

// Models is the registry of one scenario-model kind: a Registry of the
// kind's builders B, which turn an environment E and a parameter map into
// a model M.
type Models[B, E, M any] struct {
	*Registry[B]
	call  func(B, E, Params) (M, error)
	check func(M, E) error
}

// NewModels creates a model-kind registry. call invokes one builder
// (builder signatures are the kind's own); check, when non-nil, validates
// every built model, so an out-of-range parameter fails at Spec.Validate /
// campaign-submission time rather than mid-campaign.
func NewModels[B, E, M any](kind, defaultName string, call func(B, E, Params) (M, error), check func(M, E) error) *Models[B, E, M] {
	return &Models[B, E, M]{Registry: New[B](kind, "model", defaultName, Canonical), call: call, check: check}
}

// Build resolves a model name (empty selects the default model), builds it
// for the given environment and validates the result.
func (k *Models[B, E, M]) Build(name string, env E, params map[string]float64) (M, error) {
	var zero M
	b, key, err := k.Lookup(name)
	if err != nil {
		return zero, err
	}
	model, err := k.call(b, env, NewParams(params))
	if err == nil && k.check != nil {
		err = k.check(model, env)
	}
	if err != nil {
		return zero, fmt.Errorf("%s: model %q: %w", k.kind, key, err)
	}
	return model, nil
}

// ParamNames reports the parameter keys the named model consumes, observed
// by dry-building it on a zero environment with an empty parameter map.
func (k *Models[B, E, M]) ParamNames(name string) ([]string, error) {
	b, _, err := k.Lookup(name)
	if err != nil {
		return nil, err
	}
	var env E
	p := NewParams(nil)
	_, _ = k.call(b, env, p) // only the keys it read matter
	return p.Used(), nil
}

// Listing is the builder-type-free view of a Models registry — what a
// table of model kinds holds.
type Listing interface {
	Kind() string
	Default() string
	Names() []string
	Known(name string) bool
	ParamNames(name string) ([]string, error)
}

// Params wraps a model's parameter map, tracking which keys were read so a
// builder can reject unknown (misspelled) parameters with Err.
type Params struct {
	m    map[string]float64
	used map[string]bool
}

// NewParams wraps a raw parameter map (nil is fine).
func NewParams(m map[string]float64) Params {
	return Params{m: m, used: make(map[string]bool)}
}

// Get returns the parameter's value, or def when absent.
func (p Params) Get(key string, def float64) float64 {
	p.used[key] = true
	if v, ok := p.m[key]; ok {
		return v
	}
	return def
}

// Duration returns a parameter expressed in seconds as a sim.Duration.
func (p Params) Duration(key string, def sim.Duration) sim.Duration {
	p.used[key] = true
	if v, ok := p.m[key]; ok {
		return sim.Seconds(v)
	}
	return def
}

// Used returns the sorted parameter keys the builder has consumed so far
// (via Get/Duration). Dry-building a model with an empty map and reading
// Used afterwards yields the model's parameter vocabulary (ParamNames).
func (p Params) Used() []string {
	out := make([]string, 0, len(p.used))
	for k := range p.used {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Err reports the first parameter key that no Get/Duration call consumed —
// the guard against silently-ignored misspellings. Builders call it last.
func (p Params) Err() error {
	var unknown []string
	for k := range p.m {
		if !p.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	known := make([]string, 0, len(p.used))
	for k := range p.used {
		known = append(known, k)
	}
	sort.Strings(known)
	return fmt.Errorf("unknown parameter %q (known: %s)", unknown[0], strings.Join(known, ", "))
}
