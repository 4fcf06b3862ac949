package metrics

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// The stream digests' JSON codec. A run's digest is about 1 300 numbers,
// most of a committed result's. SketchState and SeriesState write and read
// their float arrays directly instead of by reflection: decoding takes
// about half the time and an eighth of the allocations (BenchmarkStreamsJSON).
// Encoding allocates a quarter as often but takes about as long, because
// encoding/json validates a MarshalJSON result byte by byte.
//
// End to end, on the benchmark's campaign_cluster workload (2-core Xeon,
// go1.24.0, seed 1, 20 s; 8 alternating pairs each, median, pairs where the
// deletion won), neither half is free to delete. Without the codec,
// allocs_per_run rose 1 546 -> 1 811 (+17 %, 0/8), units_per_s fell 441 ->
// 417 (2/8) and cached_units_per_s 24 772 -> 23 385 (2/8). Without only the
// encoder, allocs_per_run rose 1 545 -> 1 616 (+4.6 %, 0/8) while
// alloc_mb_per_run fell 0.217 -> 0.207 (8/8).
//
// The bytes written are exactly encoding/json's for the same value: fields
// in declaration order, omitempty as tagged, map keys sorted, and floats as
// encoding/json's float encoder writes them. Journal lines, cache entries
// and result digests therefore do not change.
//
// Decoding takes a fast path over the form the encoder writes (whitespace
// allowed) into a target whose slices and maps are nil. Anything else —
// null, unknown, case-folded or repeated fields, escaped or non-ASCII keys,
// strings, numbers out of range — goes to encoding/json, so what decodes,
// to which values, and what fails stay encoding/json's. FuzzStreamsJSON
// checks both directions against a method-free copy of these types.

// plainSketchState and plainSeriesState carry their namesakes' fields and
// tags but no methods: encoding/json's reflective codec, the fallback.
type (
	plainSketchState SketchState
	plainSeriesState SeriesState
)

// MarshalJSON writes the state as encoding/json would, without reflection.
func (st SketchState) MarshalJSON() ([]byte, error) {
	if err := errNonFinite([]float64{st.Compression, st.Count, st.Min, st.Max}, st.Means, st.Weights); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 80+12*(len(st.Means)+len(st.Weights)))
	b = append(b, `{"compression":`...)
	b = appendFloat(b, st.Compression)
	b = append(b, `,"count":`...)
	b = appendFloat(b, st.Count)
	if st.Min != 0 {
		b = append(b, `,"min":`...)
		b = appendFloat(b, st.Min)
	}
	if st.Max != 0 {
		b = append(b, `,"max":`...)
		b = appendFloat(b, st.Max)
	}
	if len(st.Means) > 0 {
		b = append(b, `,"means":`...)
		b = appendFloats(b, st.Means)
	}
	if len(st.Weights) > 0 {
		b = append(b, `,"weights":`...)
		b = appendFloats(b, st.Weights)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads a state, by the fast path when it can.
func (st *SketchState) UnmarshalJSON(b []byte) error {
	if st.Means == nil && st.Weights == nil && st.decodeFast(b) {
		return nil
	}
	return json.Unmarshal(b, (*plainSketchState)(st))
}

// decodeFast decodes b into st and reports success; on failure st is
// unchanged. Means and Weights share one allocation.
func (st *SketchState) decodeFast(b []byte) bool {
	out := *st
	r := jsonReader{b: b}
	vals := make([]float64, 0, bytes.Count(b, comma)+1)
	var seen uint8
	ok := r.object(func(key []byte) bool {
		var bit uint8
		ok := false
		switch string(key) {
		case "compression":
			bit = 1
			out.Compression, ok = r.number()
		case "count":
			bit = 2
			out.Count, ok = r.number()
		case "min":
			bit = 4
			out.Min, ok = r.number()
		case "max":
			bit = 8
			out.Max, ok = r.number()
		case "means":
			bit = 16
			lo := len(vals)
			vals, ok = r.numbers(vals)
			out.Means = vals[lo:len(vals):len(vals)]
		case "weights":
			bit = 32
			lo := len(vals)
			vals, ok = r.numbers(vals)
			out.Weights = vals[lo:len(vals):len(vals)]
		}
		ok = ok && seen&bit == 0
		seen |= bit
		return ok
	})
	if !ok || !r.end() {
		return false
	}
	*st = out
	return true
}

// MarshalJSON writes the series as encoding/json would, without reflection.
func (s SeriesState) MarshalJSON() ([]byte, error) {
	err, n := errNonFinite([]float64{s.BucketS}), 0
	for _, m := range [2]map[string][]float64{s.Counts, s.Sums} {
		for _, v := range m {
			err = cmp.Or(err, errNonFinite(v))
			n += len(v)
		}
	}
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 64+4*n+24*(len(s.Counts)+len(s.Sums)))
	b = append(b, `{"bucket_s":`...)
	b = appendFloat(b, s.BucketS)
	b = append(b, `,"counts":`...)
	b = appendFloatMap(b, s.Counts)
	b = append(b, `,"sums":`...)
	b = appendFloatMap(b, s.Sums)
	return append(b, '}'), nil
}

// UnmarshalJSON reads a series, by the fast path when it can.
func (s *SeriesState) UnmarshalJSON(b []byte) error {
	if s.Counts == nil && s.Sums == nil && s.decodeFast(b) {
		return nil
	}
	return json.Unmarshal(b, (*plainSeriesState)(s))
}

// decodeFast decodes b into s and reports success; on failure s is
// unchanged. Every bucket slice shares one allocation.
func (s *SeriesState) decodeFast(b []byte) bool {
	out := *s
	r := jsonReader{b: b}
	vals := make([]float64, 0, bytes.Count(b, comma)+1)
	var seen uint8
	ok := r.object(func(key []byte) bool {
		var bit uint8
		ok := false
		switch string(key) {
		case "bucket_s":
			bit = 1
			out.BucketS, ok = r.number()
		case "counts":
			bit = 2
			vals, out.Counts, ok = r.floatMap(vals)
		case "sums":
			bit = 4
			vals, out.Sums, ok = r.floatMap(vals)
		}
		ok = ok && seen&bit == 0
		seen |= bit
		return ok
	})
	if !ok || !r.end() {
		return false
	}
	*s = out
	return true
}

var comma = []byte{','}

// errNonFinite reports NaN and ±Inf, which have no JSON form, as
// encoding/json does: as an error.
func errNonFinite(fss ...[]float64) error {
	for _, fs := range fss {
		for _, f := range fs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("metrics: unsupported value: %v", f)
			}
		}
	}
	return nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in 'e' form only below 1e-6 or from 1e21
// on, with a single-digit negative exponent unpadded (1e-7, not 1e-07). A
// whole number below 2⁵³ in magnitude is its integer's digits, which
// AppendInt writes faster.
func appendFloat(b []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && f != 0 {
		return strconv.AppendInt(b, int64(f), 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func appendFloats(b []byte, fs []float64) []byte {
	if fs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
	}
	return append(b, ']')
}

// appendFloatMap appends m with its keys in sorted order, as encoding/json
// does.
func appendFloatMap(b []byte, m map[string][]float64) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	var arr [NumKinds]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendKey(b, k)
		b = appendFloats(b, m[k])
	}
	return append(b, '}')
}

// appendKey appends `"k":`. A key of printable ASCII other than a quote or
// a backslash is written as it is: '<', '>' and '&' are left to the
// encoder's HTML escaping, which runs over a MarshalJSON result as it does
// over its own strings. Any other key is quoted by encoding/json itself.
func appendKey(b []byte, k string) []byte {
	for i := 0; i < len(k); i++ {
		if c := k[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(k) // a string always encodes
			b = append(b, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
			return append(b, ':')
		}
	}
	b = append(b, '"')
	b = append(b, k...)
	return append(b, `":`...)
}

// jsonReader reads the subset of JSON the fast paths accept. Its methods
// report failure rather than an error: the caller then falls back to
// encoding/json, which finds the error, if there is one.
type jsonReader struct {
	b []byte
	i int
}

func (r *jsonReader) skipSpace() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// next consumes the next token if it is c.
func (r *jsonReader) next(c byte) bool {
	r.skipSpace()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (r *jsonReader) end() bool {
	r.skipSpace()
	return r.i == len(r.b)
}

// object reads an object whose keys are printable ASCII without escapes,
// calling member to read each value.
func (r *jsonReader) object(member func(key []byte) bool) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	for {
		key, ok := r.key()
		if !ok || !member(key) {
			return false
		}
		if r.next('}') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
}

// key reads `"name":`.
func (r *jsonReader) key() ([]byte, bool) {
	if !r.next('"') {
		return nil, false
	}
	start := r.i
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			key := r.b[start:r.i]
			r.i++
			return key, r.next(':')
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number reads a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// parsed as encoding/json parses it. A number out of float64's range fails.
// An integer of at most 15 digits is exact in a float64, so it is converted
// from its digits without ParseFloat.
func (r *jsonReader) number() (float64, bool) {
	r.skipSpace()
	b, i := r.b, r.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	whole := i
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return 0, false
		}
	}
	var f float64
	if i == whole && whole-start <= 15 {
		var n int64
		for _, c := range b[start:whole] {
			n = 10*n + int64(c-'0')
		}
		if f = float64(n); neg {
			f = -f
		}
	} else {
		var err error
		if f, err = strconv.ParseFloat(string(b[r.i:i]), 64); err != nil {
			return 0, false
		}
	}
	r.i = i
	return f, true
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// numbers reads an array of numbers onto vals.
func (r *jsonReader) numbers(vals []float64) ([]float64, bool) {
	if !r.next('[') {
		return vals, false
	}
	if r.next(']') {
		return vals, true
	}
	for {
		f, ok := r.number()
		if !ok {
			return vals, false
		}
		vals = append(vals, f)
		if r.next(']') {
			return vals, true
		}
		if !r.next(',') {
			return vals, false
		}
	}
}

// floatMap reads an object of number arrays, each a sub-slice of vals. A
// repeated key keeps its last value, as encoding/json does.
func (r *jsonReader) floatMap(vals []float64) ([]float64, map[string][]float64, bool) {
	m := make(map[string][]float64, NumKinds)
	ok := r.object(func(key []byte) bool {
		lo := len(vals)
		var ok bool
		if vals, ok = r.numbers(vals); ok {
			m[kindName(key)] = vals[lo:len(vals):len(vals)]
		}
		return ok
	})
	return vals, m, ok
}

// kindName returns key as a string, without allocating for a kind's name.
func kindName(key []byte) string {
	for _, n := range kindNames {
		if string(key) == n {
			return n
		}
	}
	return string(key)
}
