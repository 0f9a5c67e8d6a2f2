package filtercore

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// KnobType is the value domain of one tuning knob.
type KnobType int

const (
	// KnobInt is an integer knob with inclusive [Min, Max] bounds.
	KnobInt KnobType = iota
	// KnobFloat is a finite float knob with inclusive [Min, Max] bounds.
	KnobFloat
	// KnobEnum is a string knob restricted to the Enum list.
	KnobEnum
)

// Knob describes one tuning parameter of a backend family: its name (the
// key in a "k=v,k=v" tuning string), value domain, bounds and default.
// Knobs whose zero/default value means "derive from the bit budget" say
// so in Doc; the schema only enforces the domain, cross-field validity
// is the backend constructor's job.
type Knob struct {
	Name string
	Type KnobType
	// Min and Max bound KnobInt and KnobFloat values, inclusive.
	Min, Max float64
	// Enum lists the accepted values of a KnobEnum knob.
	Enum []string
	// Default is the knob's value when a tuning string omits it. It must
	// itself be a valid value; NewSchema panics otherwise.
	Default string
	// Doc is the one-line human description (README knob table, flag help).
	Doc string
}

// Schema is one backend family's complete knob set. Knobs are kept in
// sorted name order, which defines the canonical rendering of every
// Tuning parsed against the schema.
type Schema struct {
	knobs    []Knob
	byName   map[string]int
	defaults []string // canonical default per knob, index-aligned
}

// NewSchema builds a schema from knobs. It panics on a duplicate or
// empty name and on a default that its own knob rejects — schemas are
// package-level constants of backend adapters, where that is a
// programming error.
func NewSchema(knobs ...Knob) *Schema {
	s := &Schema{
		knobs:  append([]Knob(nil), knobs...),
		byName: make(map[string]int, len(knobs)),
	}
	sort.Slice(s.knobs, func(a, b int) bool { return s.knobs[a].Name < s.knobs[b].Name })
	s.defaults = make([]string, len(s.knobs))
	for i, k := range s.knobs {
		if k.Name == "" || strings.ContainsAny(k.Name, "=, ") {
			panic(fmt.Sprintf("filtercore: invalid knob name %q", k.Name))
		}
		if _, dup := s.byName[k.Name]; dup {
			panic(fmt.Sprintf("filtercore: duplicate knob %q", k.Name))
		}
		s.byName[k.Name] = i
		canon, err := canonicalKnobValue(k, k.Default)
		if err != nil {
			panic(fmt.Sprintf("filtercore: knob %q default: %v", k.Name, err))
		}
		s.defaults[i] = canon
	}
	return s
}

// Knobs returns the schema's knob descriptors in canonical (name) order.
func (s *Schema) Knobs() []Knob { return append([]Knob(nil), s.knobs...) }

// canonicalKnobValue validates raw against the knob's domain and returns
// its canonical rendering, so that "07", "7" and "7.0e0" cannot produce
// distinct tuning strings for the same configuration.
func canonicalKnobValue(k Knob, raw string) (string, error) {
	switch k.Type {
	case KnobInt:
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return "", fmt.Errorf("%q is not an integer", raw)
		}
		if float64(v) < k.Min || float64(v) > k.Max {
			return "", fmt.Errorf("%d out of range [%d,%d]", v, int64(k.Min), int64(k.Max))
		}
		return strconv.FormatInt(v, 10), nil
	case KnobFloat:
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%q is not a finite number", raw)
		}
		if v < k.Min || v > k.Max {
			return "", fmt.Errorf("%v out of range [%v,%v]", v, k.Min, k.Max)
		}
		return strconv.FormatFloat(v, 'g', -1, 64), nil
	case KnobEnum:
		for _, e := range k.Enum {
			if e == raw {
				return raw, nil
			}
		}
		return "", fmt.Errorf("%q not one of %v", raw, k.Enum)
	default:
		return "", fmt.Errorf("unknown knob type %d", k.Type)
	}
}

// Tuning is a validated, canonical knob assignment for one backend
// family: every knob of the schema has a value (explicit or default).
// The zero Tuning is valid and means "no schema, all behavior derived"
// — accessors return zero values, String returns "".
//
// Two Tunings of the same schema are equal exactly when their String
// forms are equal, which is what the snapshot layer persists and the
// restore path compares.
type Tuning struct {
	schema *Schema
	values []string // canonical value per schema knob, index-aligned
}

// Parse builds a Tuning from a "k=v,k=v" string. Unknown knobs,
// duplicate knobs, malformed assignments and out-of-domain values are
// rejected. The empty string yields the schema's defaults.
func (s *Schema) Parse(in string) (Tuning, error) {
	t := Tuning{schema: s, values: append([]string(nil), s.defaults...)}
	if strings.TrimSpace(in) == "" {
		return t, nil
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(in, ",") {
		part = strings.TrimSpace(part)
		name, val, ok := strings.Cut(part, "=")
		name, val = strings.TrimSpace(name), strings.TrimSpace(val)
		if !ok || name == "" {
			return Tuning{}, fmt.Errorf("tuning: malformed assignment %q (want knob=value)", part)
		}
		i, known := s.byName[name]
		if !known {
			return Tuning{}, fmt.Errorf("tuning: unknown knob %q (have %s)", name, strings.Join(s.names(), ", "))
		}
		if seen[name] {
			return Tuning{}, fmt.Errorf("tuning: knob %q set twice", name)
		}
		seen[name] = true
		canon, err := canonicalKnobValue(s.knobs[i], val)
		if err != nil {
			return Tuning{}, fmt.Errorf("tuning: knob %q: %w", name, err)
		}
		t.values[i] = canon
	}
	return t, nil
}

// Default returns the schema's all-defaults Tuning.
func (s *Schema) Default() Tuning {
	return Tuning{schema: s, values: append([]string(nil), s.defaults...)}
}

func (s *Schema) names() []string {
	out := make([]string, len(s.knobs))
	for i, k := range s.knobs {
		out[i] = k.Name
	}
	return out
}

// String renders the full knob set in canonical form: sorted knob
// names, canonical values, "k=v,k=v". Equal configurations always
// render identically, so the snapshot tuning frame is byte-stable.
func (t Tuning) String() string {
	if t.schema == nil {
		return ""
	}
	var b strings.Builder
	for i, k := range t.schema.knobs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k.Name)
		b.WriteByte('=')
		b.WriteString(t.values[i])
	}
	return b.String()
}

// Value returns the canonical value of a knob, or "" when t is zero or
// the knob does not exist.
func (t Tuning) Value(name string) string {
	if t.schema == nil {
		return ""
	}
	i, ok := t.schema.byName[name]
	if !ok {
		return ""
	}
	return t.values[i]
}

// Int returns a knob's value as an int (0 when absent or non-numeric),
// the form backend constructors consume for count-like knobs where 0
// means "derive from the budget".
func (t Tuning) Int(name string) int {
	v, _ := strconv.Atoi(t.Value(name))
	return v
}

// Float returns a knob's value as a float64 (0 when absent or
// non-numeric).
func (t Tuning) Float(name string) float64 {
	v, _ := strconv.ParseFloat(t.Value(name), 64)
	return v
}

// With returns a copy of t with one knob set to value (validated and
// canonicalized). It errors on a zero Tuning — there is no schema to
// validate against.
func (t Tuning) With(name, value string) (Tuning, error) {
	if t.schema == nil {
		return Tuning{}, fmt.Errorf("tuning: cannot set %q on an untuned backend", name)
	}
	i, ok := t.schema.byName[name]
	if !ok {
		return Tuning{}, fmt.Errorf("tuning: unknown knob %q (have %s)", name, strings.Join(t.schema.names(), ", "))
	}
	canon, err := canonicalKnobValue(t.schema.knobs[i], value)
	if err != nil {
		return Tuning{}, fmt.Errorf("tuning: knob %q: %w", name, err)
	}
	out := Tuning{schema: t.schema, values: append([]string(nil), t.values...)}
	out.values[i] = canon
	return out, nil
}

// ParseTuning parses a "k=v,k=v" tuning string against the factory's
// schema, filling unset knobs with their defaults. The empty string is
// always accepted and yields DefaultTuning.
func (f *Factory) ParseTuning(s string) (Tuning, error) {
	t, err := f.TuningSchema.Parse(s)
	if err != nil {
		return Tuning{}, fmt.Errorf("filtercore: backend %q: %w", f.Name, err)
	}
	return t, nil
}

// DefaultTuning returns the factory's all-defaults knob set.
func (f *Factory) DefaultTuning() Tuning { return f.TuningSchema.Default() }
