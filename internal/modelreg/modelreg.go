// Package modelreg holds the simulator's named-builder tables. A Registry is
// a case-insensitive table with a default entry; core's routing-protocol
// table is one, and the only table code can add to (core.RegisterProtocol).
// Models is one scenario-model kind (mobility, traffic, radio, lifecycle): a
// closed builder table, declared once, that builds by name with the kind's
// own validation hook and reports each model's parameters. Params is the
// read-tracking parameter-map view builders consume. Name canonicalization
// and error wording are therefore the same for protocols and models.
package modelreg

import (
	"fmt"
	"math"
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

// Models is one scenario-model kind: its builders, declared once as a
// table, each turning an environment E and a parameter map into a model M.
// The table is closed: a kind's models are exactly its declaration.
type Models[E, M any] struct {
	reg   *Registry[func(E, Params) (M, error)]
	check func(M, E) error
}

// NewModels creates a model kind from its builder table. check, when
// non-nil, validates every built model, so an out-of-range parameter fails
// at Spec.Validate / campaign-submission time rather than mid-campaign.
func NewModels[E, M any](kind, defaultName string, builders map[string]func(E, Params) (M, error), check func(M, E) error) *Models[E, M] {
	reg := New[func(E, Params) (M, error)](kind, "model", defaultName, Canonical)
	for name, b := range builders {
		reg.MustRegister(name, b)
	}
	return &Models[E, M]{reg: reg, check: check}
}

// Kind returns the kind's name ("mobility", "traffic", …).
func (k *Models[E, M]) Kind() string { return k.reg.Kind() }

// Default returns the model an empty name selects.
func (k *Models[E, M]) Default() string { return k.reg.Default() }

// Names returns every model name, sorted.
func (k *Models[E, M]) Names() []string { return k.reg.Names() }

// Known reports whether a name resolves (the empty name selects the
// default model).
func (k *Models[E, M]) Known(name string) bool { return k.reg.Known(name) }

// Build resolves a model name (empty selects the default model), builds it
// for the given environment and validates the result.
func (k *Models[E, M]) Build(name string, env E, params map[string]float64) (M, error) {
	var zero M
	b, key, err := k.reg.Lookup(name)
	if err != nil {
		return zero, err
	}
	model, err := b(env, NewParams(params))
	if err == nil && k.check != nil {
		err = k.check(model, env)
	}
	if err != nil {
		return zero, fmt.Errorf("%s: model %q: %w", k.Kind(), key, err)
	}
	return model, nil
}

// ParamNames reports the parameter keys the named model consumes, observed
// by dry-building it on a zero environment with an empty parameter map.
func (k *Models[E, M]) ParamNames(name string) ([]string, error) {
	b, _, err := k.reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	var env E
	p := NewParams(nil)
	_, _ = b(env, p) // only the keys it read matter
	return p.Used(), nil
}

// Listing is the type-free view of a model kind — what a table of model
// kinds holds.
type Listing interface {
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
// the guard against silently-ignored misspellings — and otherwise the first
// non-finite value: strconv.ParseFloat reads "nan" and "inf", so a CLI flag
// or a Go caller can supply one (JSON cannot). Builders call it last.
func (p Params) Err() error {
	var unknown, nonFinite []string
	for k, v := range p.m {
		if !p.used[k] {
			unknown = append(unknown, k)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			nonFinite = append(nonFinite, k)
		}
	}
	sort.Strings(unknown)
	sort.Strings(nonFinite)
	switch {
	case len(unknown) > 0:
		return fmt.Errorf("unknown parameter %q (known: %s)", unknown[0], strings.Join(p.Used(), ", "))
	case len(nonFinite) > 0:
		return fmt.Errorf("parameter %q is %v, not a finite number", nonFinite[0], p.m[nonFinite[0]])
	}
	return nil
}
